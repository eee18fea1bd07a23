"""Linearized network model: PTDF, affine forecast-error response, and the
chance-constraint row system.

Everything downstream of this module sees the grid as one affine map: for
dispatch x (generator outputs, p.u.) and forecast-error vector xi (one entry
per renewable bus), every monitored quantity is

    base_lin @ x + base_const + sens @ xi <= rhs.

The response model: errors enter at their buses, the aggregate imbalance
sum(xi) is absorbed by generators in proportion to their participation
factors, so net bus injections shift by M @ xi with M = E_vre - omega 1'
(column j of E_vre picks renewable bus j).  Generator outputs shift by
-omega_g * sum(xi) and branch flows by (Phi M) @ xi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .case_io import build_fleet
from .scenario_mip import (
    OPTIMAL,
    LinearSystem,
    QuadraticCost,
    qp_solve,
)


def incidence_matrix(case):
    """Oriented branch-bus incidence: +1 at the from bus, -1 at the to bus."""
    a = np.zeros((case.n_branch, case.n_bus))
    rows = np.arange(case.n_branch)
    a[rows, case.br_from] = 1.0
    a[rows, case.br_to] = -1.0
    return a


def is_connected(case):
    """Whether every bus reaches every other bus through the branches."""
    graph = csr_matrix((np.ones(case.n_branch), (case.br_from, case.br_to)),
                       shape=(case.n_bus, case.n_bus))
    return connected_components(graph, directed=False)[0] == 1


def build_ptdf(case):
    """Power transfer distribution factors from series reactances: the
    read-only (n_branch, n_bus) matrix phi with flows = phi @ injections
    for balanced injection vectors; the slack column is identically zero.

    Factorizes the reduced nodal susceptance matrix once with SuperLU,
    whose arithmetic, unlike a multithreaded BLAS Cholesky, does not depend
    on the BLAS thread count, and back-solves for all branches.  A network
    that is not connected through its branches is rejected first.
    """
    a = incidence_matrix(case)
    b_series = 1.0 / case.br_x
    b_bus = a.T @ (b_series[:, None] * a)
    if not is_connected(case):
        raise ValueError(
            "susceptance matrix is singular: the network is not connected "
            "through in-service branches")
    keep = np.arange(case.n_bus) != case.slack
    factor = splu(csc_matrix(b_bus[np.ix_(keep, keep)]))
    weighted = b_series[:, None] * a[:, keep]  # (L, n-1)
    phi = np.zeros((case.n_branch, case.n_bus))
    phi[:, keep] = factor.solve(weighted.T).T
    phi.setflags(write=False)
    return phi


@dataclass(frozen=True, eq=False)
class DcResponse:
    """Affine response of injections, generators, and flows to errors."""

    m_matrix: np.ndarray  # (n_bus, n_vre): injection shift per unit error
    gen_sens: np.ndarray  # (n_gen, n_vre): output shift per unit error
    flow_sens: np.ndarray  # (n_branch, n_vre)


def dc_response(case, fleet, phi=None):
    """Sensitivities of bus injections, generator outputs, and flows to
    the forecast-error vector under proportional balancing."""
    if phi is None:
        phi = build_ptdf(case)
    n_vre = fleet.n_vre
    m = -np.tile(fleet.participation[:, None], (1, n_vre))
    m[fleet.vre_buses, np.arange(n_vre)] += 1.0
    gen_sens = -np.outer(fleet.gen_participation, np.ones(n_vre))
    return DcResponse(m_matrix=m, gen_sens=gen_sens,
                      flow_sens=phi @ m)


@dataclass(frozen=True, eq=False)
class CcSystem:
    """Stacked one-sided rows base_lin @ x + base_const + sens @ xi <= rhs.

    Every row is a constraint with a finite bound; a quantity with no
    limit (an unrated branch) has no row.  DC row order: generator upper
    bounds, generator lower bounds (negated), rated branch upper limits,
    rated branch lower limits (negated).
    """

    row_names: tuple
    base_lin: np.ndarray  # (n_rows, n_gen)
    base_const: np.ndarray
    sens: np.ndarray  # (n_rows, n_vre)
    rhs: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.rhs).all():
            raise ValueError("every row needs a finite bound")

    @property
    def n_rows(self):
        return self.rhs.size

    def nominal_system(self, equalities):
        """The rows at xi = 0 plus the equalities (a_eq, b_eq):
        base_lin @ x <= rhs - base_const and a_eq @ x = b_eq."""
        a_eq, b_eq = equalities
        return LinearSystem.make(
            a_ineq=self.base_lin, b_ineq=self.rhs - self.base_const,
            a_eq=a_eq, b_eq=b_eq, n=self.base_lin.shape[1])

    def conflict_row(self, result):
        """Name of the row with the largest Farkas weight in the
        certificate of a qp_solve result over nominal_system, or None
        when the result carries no certificate."""
        weights = (result.certificate or {}).get("y_ineq")
        if weights is None or not weights.size:
            return None
        return self.row_names[int(np.argmax(weights))]


def assemble_cc_system(case, fleet, *, include_slack_rows=False):
    """Chance-constraint rows for generator limits and branch limits, as
    the four blocks CcSystem documents: one stacked array each, less the
    rows with no finite bound.

    Generators at the slack bus are left out by default: the balancing
    reserve is assumed to live there, and the columns would otherwise make
    every instance infeasible whenever the slack machine is at its limit
    in the nominal dispatch.  Pass include_slack_rows=True to monitor them
    anyway (diagnostics, sensitivity studies).
    """
    phi = build_ptdf(case)
    response = dc_response(case, fleet, phi)
    n_gen = case.n_gen

    cg = np.zeros((case.n_bus, n_gen))
    cg[case.gen_bus, np.arange(n_gen)] = 1.0
    inj_const = -case.p_load.copy()
    np.add.at(inj_const, fleet.vre_buses, fleet.forecasts)
    flow_lin = phi @ cg
    flow_const = phi @ inj_const

    gens = np.flatnonzero(include_slack_rows | ~case.slack_gen_mask())
    gen_lin = np.zeros((2 * gens.size, n_gen))
    gen_lin[np.arange(2 * gens.size), np.tile(gens, 2)] = np.repeat(
        [1.0, -1.0], gens.size)
    gen_sens = response.gen_sens[gens]
    ids = case.bus_ids
    names = (
        [f"gen{g}_{tag}@bus{ids[case.gen_bus[g]]}"
         for tag in ("hi", "lo") for g in gens]
        + [f"flow{l}_{tag}:{ids[f]}-{ids[t]}" for tag in ("hi", "lo")
           for l, (f, t) in enumerate(zip(case.br_from, case.br_to))])

    rhs = np.concatenate([case.p_max[gens], -case.p_min[gens],
                          case.br_limit, case.br_limit])
    keep = np.isfinite(rhs)
    cc = CcSystem(
        row_names=tuple(n for n, k in zip(names, keep) if k),
        base_lin=np.vstack([gen_lin, flow_lin, -flow_lin])[keep],
        base_const=np.concatenate([np.zeros(2 * gens.size), flow_const,
                                   -flow_const])[keep],
        sens=np.vstack([gen_sens, -gen_sens, response.flow_sens,
                        -response.flow_sens])[keep],
        rhs=rhs[keep],
    )
    for arr in (cc.base_lin, cc.base_const, cc.sens, cc.rhs):
        arr.setflags(write=False)
    return cc


def make_cost(case):
    """Dispatch cost as a standard-form quadratic, all in p.u. and $/h."""
    return QuadraticCost(h=np.diag(2.0 * case.cost_c2), g=case.cost_c1.copy(),
                         c0=float(np.sum(case.cost_c0)))


def balance_equality(case, fleet=None):
    """Single power-balance row: sum of outputs = load net of forecasts."""
    rhs = float(np.sum(case.p_load))
    if fleet is not None:
        rhs -= float(np.sum(fleet.forecasts))
    return np.ones((1, case.n_gen)), np.array([rhs])


@dataclass
class DcSolution:
    dispatch: np.ndarray | None
    cost: float
    status: str
    message: str = ""
    qp: object = None


def solve_deterministic_dc(case, fleet=None, cc=None):
    """Nominal-forecast economic dispatch over the linearized network.

    Solves the cost QP subject to power balance and the chance-constraint
    rows evaluated at xi = 0 — exactly the base system the robust variants
    use, so their objectives nest: deterministic <= k-of-S <= all-S.  With
    no fleet, a zero-error fleet on the slack bus is synthesized so the
    same row assembly applies.
    """
    if fleet is None:
        fleet = _zero_forecast(build_fleet(case, [case.slack], [1.0], 0.0))
    if cc is None:
        cc = assemble_cc_system(case, fleet)
    result = qp_solve(make_cost(case),
                      cc.nominal_system(balance_equality(case, fleet)))
    if result.status != OPTIMAL:
        row = cc.conflict_row(result)
        message = result.message if row is None else (
            f"no dispatch satisfies the limits; tightest conflicting row: "
            f"{row}")
        return DcSolution(dispatch=None, cost=np.nan, status=result.status,
                          message=message, qp=result)
    return DcSolution(dispatch=result.x, cost=result.value,
                      status=OPTIMAL, qp=result)


def _zero_forecast(fleet):
    forecasts = np.zeros_like(fleet.forecasts)
    forecasts.setflags(write=False)
    return replace(fleet, forecasts=forecasts)
