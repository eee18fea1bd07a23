"""Nonlinear AC network machinery.

Three layers, bottom up.  First, a polar Newton-Raphson power flow over
the series-impedance branch model: one kernel with step control and
stopping per scenario and one method per call, exact Newton on one
scenario (its Jacobian factored at every step) or chord Newton on a block
of scenarios and one given factorization.  pf_solve runs exact Newton.
Scoring runs chord on blocks sized from the bus count and
NEWTON_BLOCK_BYTES, every scenario from the nominal state on the
factorization of the Jacobian there, then exact Newton on each scenario
that chord left unsolved.  Second, the monitored rows and their
response sensitivities to forecast errors and to dispatch, by the
implicit-function rule on the power-flow Jacobian.  Third, an alternating
loop that linearizes the monitored quantities around the latest operating
point, solves the scenario-selection program on those rows, and
re-projects onto the power-flow manifold until the operating point
settles; every QP of the loop minimizes the dispatch cost itself.
AcRowSet, whose constructor chooses the monitored set, owns the row
layout: how each kind of row is indexed, read, differentiated and
signed; _Sensitivity is the one linearization at an operating point,
computing each piece at most once; scoring builds only the monitored
branch flows.

Conventions: voltage magnitudes are carried squared (p.u.^2), matching the
squared bounds of the bus-voltage rows; branch flows are directed active
powers, from-side block first; the slack machine absorbs balancing power
and losses, so its rows are left out of the monitored set by default
(mirroring the DC row schema).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .case_io import PQ, SLACK
from .dc_model import CcSystem, make_cost
from .scenario_mip import (
    OPTIMAL,
    ROW_TOL,
    SolverOptions,
    build_selection_from_ccopf,
    qp_solve,
    solve_selection,
)

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 30
MAX_STEP_HALVINGS = 5
# Work-array budget of one scoring block; the number of scenarios per
# block follows from it and the bus count (_block_size).
NEWTON_BLOCK_BYTES = 2 * 2**20

INNER_STEP_TOL = 1e-6
MAX_INNER_PASSES = 20
OUTER_TOL = 1e-4
MAX_OUTER_ITER = 10


class NewtonError(RuntimeError):
    """A power-flow solve failed where a solved state is required."""


class FixedPointError(RuntimeError):
    """The alternating solve did not settle."""


@dataclass(frozen=True, eq=False)
class AcState:
    """Operating point (P, Q, v, theta, ell) with solve metadata.

    p/q are net bus injections (p.u.), v squared magnitudes (p.u.^2),
    theta angles (rad, slack pinned to zero), ell directed branch active
    flows stacked [from-side; to-side].  mismatch is the final inf-norm of
    the power-flow equations; solved means it is at or below the Newton
    tolerance.
    """

    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    ell: np.ndarray
    solved: bool
    iterations: int
    mismatch: float
    message: str = ""


@dataclass(frozen=True, eq=False)
class _Network:
    """Dense admittance data, directed branches and bus groups shared by
    every evaluation at one case."""

    ybus: np.ndarray  # (n, n) complex
    own: np.ndarray  # (2L,) measured end of each directed branch [from; to]
    far: np.ndarray  # (2L,) its far end
    y_dir: np.ndarray  # (2L,) its series admittance
    ns: np.ndarray  # non-slack buses: active targets bind here
    pq: np.ndarray  # PQ buses: reactive targets bind, magnitudes move
    p_row: np.ndarray  # row of each bus's P equation among the unknowns, -1
    q_row: np.ndarray  # row of each bus's Q equation among the unknowns, -1
    n_u: int  # unknowns: [angles at ns; magnitudes at pq]


def _network(case):
    n = case.n_bus
    y = 1.0 / (case.br_r + 1j * case.br_x)
    ybus = np.zeros((n, n), dtype=complex)
    f, t = case.br_from, case.br_to
    np.add.at(ybus, (f, f), y)
    np.add.at(ybus, (t, t), y)
    np.add.at(ybus, (f, t), -y)
    np.add.at(ybus, (t, f), -y)
    ns = np.flatnonzero(case.bus_kind != SLACK)
    pq = np.flatnonzero(case.bus_kind == PQ)
    p_row, q_row = np.full(n, -1), np.full(n, -1)
    p_row[ns] = np.arange(ns.size)
    q_row[pq] = ns.size + np.arange(pq.size)
    return _Network(ybus=ybus, own=np.concatenate([f, t]),
                    far=np.concatenate([t, f]), y_dir=np.tile(y, 2),
                    ns=ns, pq=pq, p_row=p_row, q_row=q_row,
                    n_u=ns.size + pq.size)


# _ybus_times, _injections, _branch_power, _quantities, _ds_bus and
# _pf_jacobian take one operating point as (n,) vectors or a block of them
# as (B, n) rows, with the same arithmetic per row either way.  Exact
# Newton builds its Jacobian from a block of one row.


def _ybus_times(net, v):
    """Ybus @ v for each row of v (bit-identical for one row or many)."""
    return (net.ybus @ v[..., None])[..., 0]


def _injections(net, vmag, theta):
    """Complex voltages and complex bus power injections."""
    v = vmag * np.exp(1j * theta)
    return v, v * np.conj(_ybus_times(net, v))


def _branch_power(net, v, flows):
    """Directed branch active powers at complex voltages v, one column per
    entry of flows (an index into the stacked [from; to] order)."""
    va, vb = v[..., net.own[flows]], v[..., net.far[flows]]
    return (va * np.conj(net.y_dir[flows] * (va - vb))).real


def _quantities(net, vmag, theta, flows=slice(None)):
    """(p, q, squared magnitudes, the directed branch flows that flows
    indexes; all of them by default)."""
    v, s_bus = _injections(net, vmag, theta)
    return s_bus.real, s_bus.imag, vmag**2, _branch_power(net, v, flows)


def _make_state(net, vmag, theta, solved, iterations, mismatch, message=""):
    p, q, v, ell = _quantities(net, vmag, theta)
    p, q, theta, ell = p.copy(), q.copy(), theta.copy(), ell.copy()
    for arr in (p, q, v, theta, ell):
        arr.setflags(write=False)
    return AcState(p=p, q=q, v=v, theta=theta, ell=ell, solved=solved,
                   iterations=iterations, mismatch=mismatch, message=message)


def _ds_bus(net, v):
    """Partial derivatives of complex bus injections w.r.t. angles and
    magnitudes, both (..., n, n) complex."""
    i_bus = _ybus_times(net, v)
    u = v / np.abs(v)
    diag = np.arange(v.shape[-1])
    ds_dva = -np.conj(net.ybus * v[..., None, :])
    ds_dva[..., diag, diag] += np.conj(i_bus)
    ds_dva = 1j * v[..., :, None] * ds_dva
    ds_dvm = v[..., :, None] * np.conj(net.ybus * u[..., None, :])
    ds_dvm[..., diag, diag] += u * np.conj(i_bus)
    return ds_dva, ds_dvm


def _ds_branch(net, v, flows):
    """Partials of the directed complex branch powers that flows indexes
    in the stacked [from; to] order, one (flows.size, n) array each."""
    a, b, y = net.own[flows], net.far[flows], net.y_dir[flows]
    u = v / np.abs(v)
    va_, vb_ = v[a], v[b]
    i_dir = y * (va_ - vb_)
    rows = np.arange(flows.size)
    out_va = np.zeros((flows.size, v.size), dtype=complex)
    out_vm = np.zeros((flows.size, v.size), dtype=complex)
    # d S / d theta: own-end and far-end columns.
    out_va[rows, a] = 1j * (va_ * np.conj(i_dir)
                            - np.conj(y) * np.abs(va_) ** 2)
    out_va[rows, b] += 1j * np.conj(y) * va_ * np.conj(vb_)
    # d S / d vmag.
    out_vm[rows, a] = (u[a] * np.conj(i_dir)
                       + np.conj(y) * va_ * np.conj(u[a]))
    out_vm[rows, b] += -np.conj(y) * va_ * np.conj(u[b])
    return out_va, out_vm


def _pf_jacobian(net, v):
    """Power-flow Jacobian over [angles at ns; magnitudes at pq]."""
    ds_dva, ds_dvm = _ds_bus(net, v)
    ns, pq = net.ns[:, None], net.pq[:, None]
    top = np.concatenate([ds_dva.real[..., ns, net.ns],
                          ds_dvm.real[..., ns, net.pq]], axis=-1)
    bottom = np.concatenate([ds_dva.imag[..., pq, net.ns],
                             ds_dvm.imag[..., pq, net.pq]], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _block_size(n_bus):
    """Scenarios per scoring block: a chord block holds (B, n) arrays
    only, about sixteen complex rows per scenario, within
    NEWTON_BLOCK_BYTES."""
    return max(1, NEWTON_BLOCK_BYTES // (16 * 16 * n_bus))


def _newton(net, p_set, q_set, vmag, theta, lu=None):
    """Polar Newton-Raphson on a block of scenarios, one per row.

    p_set / q_set are (B, n) injection targets; vmag / theta are (B, n)
    start points with pinned magnitudes and the slack angle already set,
    and are advanced in place.  Each scenario follows the same rules as if
    it were solved alone: it stops when its mismatch inf-norm is at most
    NEWTON_TOL, after MAX_NEWTON_ITER steps, or when no step length
    survives MAX_STEP_HALVINGS halvings (a step is taken when the norm
    falls, or at the last halving, and only while every PQ magnitude stays
    positive).  Converged and stopped scenarios leave the active set.

    One method per call.  Without lu every step is exact Newton on the
    Jacobian at the current point, which also stops on a singular
    Jacobian; the block must hold exactly one scenario (ValueError
    otherwise).  With lu, the LU factorization (scipy.linalg.lu_factor) of
    a power-flow Jacobian, every step is a chord step: one triangular solve
    on that factorization for the whole block, under the same rules except
    that a step is never forced at the last halving.  Returns (steps,
    final norms, messages), per scenario; a message is empty exactly when
    the scenario converged.
    """
    ns, pq = net.ns, net.pq
    target = np.concatenate([p_set[:, ns], q_set[:, pq]], axis=1)

    def mismatch(rows, vm, va):
        s_bus = _injections(net, vm, va)[1]
        return (np.concatenate([s_bus.real[:, ns], s_bus.imag[:, pq]],
                               axis=1) - target[rows])

    b = vmag.shape[0]
    if lu is None and b != 1:
        raise ValueError("exact Newton takes one scenario")
    f_val = mismatch(np.arange(b), vmag, theta)
    norm = np.abs(f_val).max(axis=1, initial=0.0)
    steps = np.zeros(b, dtype=int)
    messages = [""] * b
    active = np.arange(b)
    while True:
        active = active[~(norm[active] <= NEWTON_TOL)
                        & (steps[active] < MAX_NEWTON_ITER)]
        if not active.size:
            break
        rhs = -f_val[active]
        if lu is None:
            v = vmag * np.exp(1j * theta)
            try:
                du = np.linalg.solve(_pf_jacobian(net, v),
                                     rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                messages[0] = ("singular power-flow system "
                               f"(mismatch {norm[0]:.3e})")
                break
        else:
            du = scipy.linalg.lu_solve(lu, rhs.T, check_finite=False).T
        alpha = 1.0
        searching = np.ones(active.size, dtype=bool)
        for halving in range(MAX_STEP_HALVINGS + 1):
            if not searching.any():
                break
            rows = active[searching]
            theta_new, vmag_new = theta[rows], vmag[rows]
            theta_new[:, ns] += alpha * du[searching, :ns.size]
            vmag_new[:, pq] += alpha * du[searching, ns.size:]
            positive = np.all(vmag_new[:, pq] > 0, axis=1)
            rows = rows[positive]
            theta_new, vmag_new = theta_new[positive], vmag_new[positive]
            f_new = mismatch(rows, vmag_new, theta_new)
            norm_new = np.abs(f_new).max(axis=1, initial=0.0)
            take = norm_new < norm[rows]
            if halving == MAX_STEP_HALVINGS and lu is None:
                take[:] = True
            rows = rows[take]
            theta[rows], vmag[rows] = theta_new[take], vmag_new[take]
            f_val[rows], norm[rows] = f_new[take], norm_new[take]
            searching[np.flatnonzero(searching)[positive][take]] = False
            alpha *= 0.5
        for i in active[searching]:
            messages[i] = f"step rejected at mismatch {norm[i]:.3e}"
        steps[active[~searching]] += 1
        active = active[~searching]
    for i in np.flatnonzero(~(norm <= NEWTON_TOL)):
        if not messages[i]:
            messages[i] = (f"no convergence in {MAX_NEWTON_ITER} iterations "
                           f"(mismatch {norm[i]:.3e})")
    return steps, norm, messages


def _start_point(case, v_set2, theta0, vmag0):
    """Newton start: flat unless given, pinned magnitudes from v_set2."""
    n = case.n_bus
    theta = np.zeros(n) if theta0 is None else np.array(theta0, float)
    vmag = np.ones(n) if vmag0 is None else np.array(vmag0, float)
    theta[case.slack] = 0.0
    pinned = case.bus_kind != PQ
    vmag[pinned] = np.sqrt(v_set2[pinned])
    return vmag, theta


def pf_solve(case, p_set, q_set, *, v_set2=None, theta0=None, vmag0=None,
             net=None):
    """Polar Newton-Raphson power flow: exact Newton on one scenario.

    p_set / q_set are target net bus injections; the active targets bind
    at every non-slack bus, the reactive ones at PQ buses.  v_set2 gives
    squared magnitude setpoints for PV and slack buses (defaults to the
    case profile).  The start is flat (angles zero, unknown magnitudes
    one) unless warm-start vectors are supplied.  Steps are halved up to
    five times whenever the mismatch norm grows or a magnitude would leave
    the positive domain; non-convergence is reported on the returned
    state, never raised.  net is the case's _Network when the caller
    holds one (built here otherwise).
    """
    net = _network(case) if net is None else net
    n = case.n_bus
    p_set = np.asarray(p_set, dtype=float)
    q_set = np.asarray(q_set, dtype=float)
    if p_set.shape != (n,) or q_set.shape != (n,):
        raise ValueError("setpoint vectors must have one entry per bus")
    v_set2 = case.v_set2 if v_set2 is None else np.asarray(v_set2, float)
    if np.any(v_set2 <= 0):
        raise ValueError("squared voltage setpoints must be positive")
    vmag, theta = _start_point(case, v_set2, theta0, vmag0)
    vmag, theta = vmag[None], theta[None]
    (iterations,), (norm,), (message,) = _newton(
        net, p_set[None], q_set[None], vmag, theta)
    return _make_state(net, vmag[0], theta[0], bool(norm <= NEWTON_TOL),
                       int(iterations), float(norm), message)


def _require_solved(state, what):
    if not state.solved:
        raise NewtonError(f"{what}: {state.message}")
    return state


def solve_operating_point(case, fleet, dispatch, **pf_kwargs):
    """Power flow at a dispatch with zero forecast error: the net bus
    injections are dispatch plus forecasts minus load.  pf_kwargs go to
    pf_solve (its start, and net)."""
    p_set = -case.p_load.copy()
    np.add.at(p_set, case.gen_bus, np.asarray(dispatch, dtype=float))
    p_set[fleet.vre_buses] += fleet.forecasts
    return pf_solve(case, p_set, -case.q_load, **pf_kwargs)


def _response_setpoints(case, fleet, state, xi):
    """(B, n) injection targets for forecast errors xi, one per row.

    Active targets at every non-slack bus shift by the direct error at
    that bus minus its participation share of the total error; reactive
    targets shift by gamma * xi at PQ-typed error buses (at PV-typed ones
    the local machine absorbs the reactive swing, which only moves its own
    output accounting).
    """
    total = xi.sum(axis=1)
    p_set = state.p - fleet.participation * total[:, None]
    p_set[:, fleet.vre_buses] += xi
    q_set = np.tile(state.q, (xi.shape[0], 1))
    at_pq = case.bus_kind[fleet.vre_buses] == PQ
    q_set[:, fleet.vre_buses[at_pq]] += fleet.gamma * xi[:, at_pq]
    return p_set, q_set


# --- monitored quantities and their sensitivities -------------------------


class AcRowSet:
    """Monitored quantities with two-sided bounds, and the one owner of
    their layout.

    kinds: 'pgen' (machine active output, index = generator), 'qbus'
    (aggregate machine reactive output at a generator bus, index = bus),
    'v' (squared magnitude at a PQ bus, index = bus), 'flow' (directed
    branch active power, index = row into the stacked [from; to] flows,
    upper bound only).

    The constructor chooses the kind groups in kind order, with their
    names and bounds: the machines and their buses (slack ones only with
    include_slack_rows), the PQ buses, and the directed flows of the rated
    branches only (an unrated branch has no limit, so no quantity).  The
    case fixes which machine rows sit at the slack bus and how they share
    its output, and is not kept.  Everything that depends on a row's kind
    works on the kind groups, one array operation per group: values reads
    the rows off blocks of operating points and their monitored flows,
    state_partials and direct_xi give their derivatives with respect to
    the power-flow unknowns (at a _Sensitivity's state) and to the
    forecast errors, and q_idx, signs, signed_names and rhs expand them
    into the one-sided rows of the selection program (per kind an upper
    block then a lower block; flow rows upper only), less the rows with no
    finite bound.
    """

    def __init__(self, case, *, include_slack_rows=False):
        order = np.argsort(case.gen_bus, kind="stable")
        gen_buses, starts = np.unique(case.gen_bus[order], return_index=True)
        at_pq = gen_buses[case.bus_kind[gen_buses] == PQ]
        if at_pq.size:
            raise ValueError(
                f"generator at PQ bus {case.bus_ids[at_pq[0]]} is not "
                "supported by the nonlinear model (bus must hold voltage)")
        gens = np.flatnonzero(include_slack_rows | ~case.slack_gen_mask())
        q_keep = include_slack_rows | (gen_buses != case.slack)
        self.q_buses = gen_buses[q_keep]
        self.v_buses = np.flatnonzero(case.bus_kind == PQ)
        rated = np.flatnonzero(np.isfinite(case.br_limit))
        self.flows = np.concatenate([rated, case.n_branch + rated])
        branch = self.flows % case.n_branch
        ids = case.bus_ids
        self.names = tuple(
            [f"gen{g}@bus{ids[case.gen_bus[g]]}" for g in gens]
            + [f"qgen@bus{ids[b]}" for b in self.q_buses]
            + [f"v@bus{ids[b]}" for b in self.v_buses]
            + [f"flow{l}_{'fwd' if row < case.n_branch else 'rev'}:"
               f"{ids[case.br_from[l]]}-{ids[case.br_to[l]]}"
               for row, l in zip(self.flows, branch)])
        # Machine Q ranges summed per generator bus.
        q_lo, q_hi = (np.add.reduceat(q[order], starts)[q_keep]
                      for q in (case.q_min, case.q_max))
        self.lo = np.concatenate([case.p_min[gens], q_lo,
                                  case.v_min2[self.v_buses],
                                  np.full(branch.size, -np.inf)])
        self.hi = np.concatenate([case.p_max[gens], q_hi,
                                  case.v_max2[self.v_buses],
                                  case.br_limit[branch]])
        groups = (gens, self.q_buses, self.v_buses, self.flows)
        self.kinds = tuple(kind for kind, group in zip(
            ("pgen", "qbus", "v", "flow"), groups) for _ in group)
        ends = np.cumsum([group.size for group in groups])
        pgen, self.q_rows, self.v_rows, self.flow_rows = (
            np.arange(end - group.size, end)
            for end, group in zip(ends, groups))
        slack_mask = case.slack_gen_mask()
        at_slack = slack_mask[gens]
        # Non-slack machines follow their dispatch; the slack machines
        # split the slack requirement in proportion to their capacity.
        self.gen_rows, self.gens = pgen[~at_slack], gens[~at_slack]
        self.slack_rows = pgen[at_slack]
        caps = case.p_max[slack_mask]
        shares = (caps / caps.sum() if caps.sum() > 0
                  else np.full(caps.size, 1.0 / max(caps.size, 1)))
        self.slack_shares = shares[
            (np.cumsum(slack_mask) - 1)[gens[at_slack]]]

        blocks = []
        for group in (pgen, self.q_rows, self.v_rows):
            blocks += [(group, 1.0, "_hi"), (group, -1.0, "_lo")]
        blocks.append((self.flow_rows, 1.0, ""))
        q_idx = np.concatenate([g for g, _, _ in blocks])
        signs = np.concatenate([np.full(g.size, s) for g, s, _ in blocks])
        names = [f"{self.names[r]}{suffix}"
                 for g, _, suffix in blocks for r in g]
        rhs = np.where(signs > 0, self.hi[q_idx], -self.lo[q_idx])
        keep = np.isfinite(rhs)
        self.q_idx, self.signs, self.rhs = q_idx[keep], signs[keep], rhs[keep]
        self.signed_names = tuple(n for n, k in zip(names, keep) if k)
        for arr in (self.lo, self.hi, self.q_idx, self.signs, self.rhs):
            arr.setflags(write=False)

    @property
    def n_rows(self):
        return len(self.kinds)

    def values(self, case, fleet, p, q, v, flows, dispatch, xi):
        """(B, n_rows) values; p, q, v, flows and xi hold one point per
        row, flows one column per entry of self.flows.

        Machine active outputs follow the dispatch plus participation
        response directly (the power flow realizes exactly that rule);
        everything else is read off the state.
        """
        total = xi.sum(axis=1)
        direct = np.zeros(p.shape)
        direct[:, fleet.vre_buses] = xi
        slack = case.slack
        slack_forecast = fleet.forecasts[fleet.vre_buses == slack].sum()
        out = np.empty((p.shape[0], self.n_rows))
        out[:, self.gen_rows] = (dispatch[self.gens]
                                 - fleet.gen_participation[self.gens]
                                 * total[:, None])
        slack_total = (p[:, slack] + case.p_load[slack] - slack_forecast
                       - direct[:, slack])
        out[:, self.slack_rows] = slack_total[:, None] * self.slack_shares
        qb = self.q_buses
        out[:, self.q_rows] = (q[:, qb] + case.q_load[qb]
                               - fleet.gamma * direct[:, qb])
        out[:, self.v_rows] = v[:, self.v_buses]
        out[:, self.flow_rows] = flows
        return out

    def state_partials(self, lin):
        """d(value)/d(power-flow unknowns) at the state of the _Sensitivity
        lin, on the case lin was built for.

        Non-slack machine outputs do not move with the state; v rows sit
        at PQ buses, whose magnitudes are unknowns.
        """
        net = lin.net
        dp_du, dq_du = lin.partials
        out = np.zeros((self.n_rows, net.n_u))
        out[self.slack_rows] = (self.slack_shares[:, None]
                                * dp_du[lin.case.slack])
        out[self.q_rows] = dq_du[self.q_buses]
        out[self.v_rows, net.q_row[self.v_buses]] = (
            2.0 * lin.vmag[self.v_buses])
        dl_dva, dl_dvm = _ds_branch(net, lin.v, self.flows)
        out[self.flow_rows] = np.hstack([dl_dva.real[:, net.ns],
                                         dl_dvm.real[:, net.pq]])
        return out

    def direct_xi(self, case, fleet):
        """d(value)/d(xi) holding the network state fixed."""
        direct = np.zeros((self.n_rows, fleet.n_vre))
        direct[self.gen_rows] = -fleet.gen_participation[self.gens][:, None]
        direct[self.slack_rows] = np.where(
            fleet.vre_buses == case.slack,
            -self.slack_shares[:, None], 0.0)
        direct[self.q_rows] = np.where(
            self.q_buses[:, None] == fleet.vre_buses, -fleet.gamma, 0.0)
        return direct


def ac_row_set(case, fleet, *, include_slack_rows=False):
    """The monitored set of the nonlinear model on case: AcRowSet, which
    needs no fleet."""
    return AcRowSet(case, include_slack_rows=include_slack_rows)


def quantity_values(case, fleet, rows, state, dispatch, xi=None):
    """Exact monitored-quantity values at a responded operating point
    (AcRowSet.values on one state).  xi defaults to zero."""
    dispatch = np.asarray(dispatch, dtype=float)
    xi = np.zeros(fleet.n_vre) if xi is None else np.asarray(xi, float)
    (values,) = rows.values(
        case, fleet, state.p[None], state.q[None], state.v[None],
        state.ell[None, rows.flows], dispatch, xi[None])
    return values


@dataclass(frozen=True, eq=False)
class ResponseJacobian:
    """Sensitivity of every monitored quantity to the forecast errors."""

    row_names: tuple
    j_matrix: np.ndarray  # (n_rows, n_vre)


class _Sensitivity:
    """The one linearization of the monitored rows at one solved state.

    It binds the case, the fleet, the row set and the case's _Network, and
    at(state) gives the next operating point's linearization on the same
    bindings.  Building one checks the state; the rest is computed on first
    use and kept, so at most once per point: the Jacobian factorization,
    the bus and row state partials, du_x (the state shift per unit of each
    machine's dispatch; slack machines: zero) and the error response.  The
    last re-projected point of the loop, whose state alone is read, is
    never factored.  rows may be None where only lu or loss_balance is
    read.
    """

    def __init__(self, case, fleet, rows, state, net=None):
        _require_solved(state, "linearization needs a solved state")
        self.case, self.fleet, self.rows, self.state = case, fleet, rows, state
        self.net = _network(case) if net is None else net
        self.vmag = np.sqrt(state.v)
        self.v = self.vmag * np.exp(1j * state.theta)

    def at(self, state):
        """The linearization at another solved state of the same case."""
        return _Sensitivity(self.case, self.fleet, self.rows, state, self.net)

    @cached_property
    def lu(self):
        return scipy.linalg.lu_factor(_pf_jacobian(self.net, self.v))

    @cached_property
    def partials(self):
        """(dp_du, dq_du): bus P and bus Q against the power-flow unknowns."""
        ns, pq = self.net.ns, self.net.pq
        ds_dva, ds_dvm = _ds_bus(self.net, self.v)
        return tuple(np.hstack([d_va[:, ns], d_vm[:, pq]])
                     for d_va, d_vm in ((ds_dva.real, ds_dvm.real),
                                        (ds_dva.imag, ds_dvm.imag)))

    @cached_property
    def state_partials(self):
        """AcRowSet.state_partials at this state, read-only."""
        out = self.rows.state_partials(self)
        out.setflags(write=False)
        return out

    @cached_property
    def du_x(self):
        gen_rows = self.net.p_row[self.case.gen_bus]
        steered = np.flatnonzero(gen_rows >= 0)
        rhs = np.zeros((self.net.n_u, self.case.n_gen))
        rhs[gen_rows[steered], steered] = 1.0
        return scipy.linalg.lu_solve(self.lu, rhs)

    @cached_property
    def response(self):
        """response_jacobian's (n_rows, n_vre) matrix at this state."""
        fleet, net = self.fleet, self.net
        rhs = np.zeros((net.n_u, fleet.n_vre))
        rhs[:net.ns.size, :] -= fleet.participation[net.ns][:, None]
        cols = np.arange(fleet.n_vre)
        p_rows = net.p_row[fleet.vre_buses]
        q_rows = net.q_row[fleet.vre_buses]
        rhs[p_rows[p_rows >= 0], cols[p_rows >= 0]] += 1.0
        rhs[q_rows[q_rows >= 0], cols[q_rows >= 0]] += fleet.gamma
        j = (self.state_partials @ scipy.linalg.lu_solve(self.lu, rhs)
             + self.rows.direct_xi(self.case, fleet))
        j.setflags(write=False)
        return j

    def cc_system(self, dispatch, sens_rows):
        """linearize_cc_system at this state."""
        rows = self.rows
        lin = self.state_partials @ self.du_x
        lin[rows.gen_rows, rows.gens] += 1.0
        const = (quantity_values(self.case, self.fleet, rows, self.state,
                                 dispatch)
                 - lin @ dispatch)
        signs, q_idx = rows.signs, rows.q_idx
        cc = CcSystem(
            row_names=rows.signed_names,
            base_lin=signs[:, None] * lin[q_idx],
            base_const=signs * const[q_idx],
            sens=signs[:, None] * sens_rows[q_idx],
            rhs=rows.rhs,
        )
        for arr in (cc.base_lin, cc.base_const, cc.sens):
            arr.setflags(write=False)
        return cc

    def loss_balance(self, dispatch):
        """loss_balance_equality at this state."""
        case = self.case
        grad = self.partials[0][case.slack] @ self.du_x
        grad[~case.slack_gen_mask()] += 1.0
        grad[case.slack_gen_mask()] = 0.0
        losses = float(self.state.p.sum())
        total = float(case.p_load.sum() - self.fleet.forecasts.sum())
        a_eq = (1.0 - grad)[None, :]
        b_eq = np.array([total + losses - grad @ dispatch])
        return a_eq, b_eq


def response_jacobian(case, fleet, state, *, rows):
    """First-order response of every monitored quantity to the errors.

    Assembled from the implicit-function rule on the factorized power-flow
    system plus the direct participation terms; machine active rows come
    out exactly minus the participation factors.
    """
    return ResponseJacobian(
        row_names=rows.names,
        j_matrix=_Sensitivity(case, fleet, rows, state).response)


def linearize_cc_system(case, fleet, state, dispatch, *, rows, sens_rows):
    """Affine restatement of the monitored rows around an operating point.

    Produces the same row schema as the DC assembly: base_lin @ x +
    base_const + sens @ xi <= rhs, exact at (dispatch, xi=0) up to the
    power-flow tolerance.  sens_rows carries the (n_rows, n_vre) error
    sensitivities, frozen at this state or an earlier one
    (response_jacobian).
    """
    return _Sensitivity(case, fleet, rows, state).cc_system(
        np.asarray(dispatch, dtype=float), sens_rows)


def loss_balance_equality(case, fleet, state, dispatch):
    """Total-generation equality with losses linearized at the state.

    sum(x) = total load - total forecast + L(x), with L replaced by its
    first-order model around the current dispatch; the loss gradient comes
    from the slack-injection sensitivity columns.
    """
    return _Sensitivity(case, fleet, None, state).loss_balance(
        np.asarray(dispatch, dtype=float))


# --- the alternating dispatch/selection loop ------------------------------


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Converged operating point, final selection, and the distance trail.

    obj_history holds the selection objective, the dispatch cost of the
    selection's optimum, after each outer iteration, aligned with
    d_history.
    """

    state: AcState
    selection: object
    outer_iterations: int
    d_history: tuple
    obj_history: tuple = ()


def _initial_dispatch(case, fleet):
    net_demand = float(case.p_load.sum() - fleet.forecasts.sum())
    x = fleet.gen_participation * net_demand
    return np.clip(x, case.p_min, case.p_max)


def _inner_slp(cost, lin, x_start, frozen_j, *, xi=None, k=None,
               options=None):
    """Linearize, solve, re-project until the dispatch settles.

    lin is the _Sensitivity at x_start's operating point; each pass
    linearizes on the current one and takes the next at the re-projected
    point.  With xi=None this is the deterministic stage (single QP per
    pass); otherwise the selection program runs per pass with frozen_j as
    the error sensitivities.  Both stages minimize cost, the dispatch
    cost, on the linearized rows.  Returns (dispatch, its _Sensitivity,
    selection-or-None).
    """
    x_cur = np.asarray(x_start, float)
    sel = None
    for _ in range(MAX_INNER_PASSES):
        cc = lin.cc_system(x_cur, frozen_j)
        equalities = lin.loss_balance(x_cur)
        if xi is None:
            result = qp_solve(cost, cc.nominal_system(equalities))
            if result.status != OPTIMAL:
                row = cc.conflict_row(result)
                hint = "" if row is None else f" (most conflicted row: {row})"
                raise FixedPointError(
                    f"deterministic stage: {result.status}{hint}")
            x_new = result.x
        else:
            problem = build_selection_from_ccopf(cc, xi, cost, k,
                                                 equalities=equalities)
            sel = solve_selection(problem, options)
            if sel.status != OPTIMAL:
                detail = f" at {sel.message}" if sel.message else ""
                raise FixedPointError(
                    f"selection stage: {sel.status}{detail}")
            x_new = sel.x_star
        step = float(np.abs(x_new - x_cur).max())
        w_new = _require_solved(
            solve_operating_point(lin.case, lin.fleet, x_new,
                                  theta0=lin.state.theta, vmag0=lin.vmag,
                                  net=lin.net),
            "re-projection power flow")
        x_cur, lin = x_new, lin.at(w_new)
        if step <= INNER_STEP_TOL:
            return x_cur, lin, sel
    raise FixedPointError(
        f"linearization loop still moving after {MAX_INNER_PASSES} passes "
        f"(last step {step:.3e})")


def _state_distance(case, w_new, w_old):
    """2-norm over [squared magnitudes at slack and PV, P at PV]."""
    pinned = np.flatnonzero(case.bus_kind != PQ)
    pv = np.flatnonzero((case.bus_kind != PQ)
                        & (np.arange(case.n_bus) != case.slack))
    diff = np.concatenate([w_new.v[pinned] - w_old.v[pinned],
                           w_new.p[pv] - w_old.p[pv]])
    return float(np.linalg.norm(diff))


def fixed_point_solve(case, fleet, scenarios, params, options=None, *,
                      include_slack_rows=False):
    """Alternate between error-sensitivity freezing and selection solves.

    Stage zero minimizes the dispatch cost without scenario blocks; each
    outer iteration then freezes the error sensitivities at the incumbent
    operating point, solves the k-of-S selection program on the same cost
    (inner linearization loop included), and measures the distance between
    consecutive operating points over the controlled subvector.  The
    frozen sensitivities and the first inner pass share one linearization.
    Stops when the distance falls to OUTER_TOL; raises FixedPointError,
    whose message lists the full distance trail, otherwise.
    """
    xi = np.atleast_2d(np.asarray(getattr(scenarios, "xi", scenarios),
                                  dtype=float))
    if xi.shape[1] != fleet.n_vre:
        raise ValueError("scenario width must match the fleet")
    if params.s != xi.shape[0]:
        raise ValueError(
            f"ambiguity tuple is for S={params.s}, got {xi.shape[0]} "
            "scenarios")
    options = options or SolverOptions()
    rows = ac_row_set(case, fleet, include_slack_rows=include_slack_rows)
    cost = make_cost(case)

    x0 = _initial_dispatch(case, fleet)
    net = _network(case)
    w0 = _require_solved(solve_operating_point(case, fleet, x0, net=net),
                         "starting-point power flow")
    x_t, lin_t, _ = _inner_slp(cost, _Sensitivity(case, fleet, rows, w0, net),
                               x0, np.zeros((rows.n_rows, fleet.n_vre)))
    d_history = []
    obj_history = []
    for t in range(1, MAX_OUTER_ITER + 1):
        x_new, lin_new, sel = _inner_slp(cost, lin_t, x_t, lin_t.response,
                                         xi=xi, k=params.k, options=options)
        d = _state_distance(case, lin_new.state, lin_t.state)
        d_history.append(d)
        obj_history.append(sel.objective)
        x_t, lin_t = x_new, lin_new
        if d <= OUTER_TOL:
            return FixedPointResult(state=lin_t.state, selection=sel,
                                    outer_iterations=t,
                                    d_history=tuple(d_history),
                                    obj_history=tuple(obj_history))
    raise FixedPointError(
        "operating point still moving after "
        f"{MAX_OUTER_ITER} outer iterations: distances "
        + ", ".join(f"{d:.3e}" for d in d_history))


# --- evaluation hooks ------------------------------------------------------


class AcEvaluator:
    """Out-of-sample scoring by full nonlinear re-solve per scenario.

    Every scenario is responded to with Newton from the nominal point of
    the dispatch the evaluator is built at, and the signed rows of the
    row set are checked (only the monitored flows are built); a response
    that fails to solve scores as a joint violation under the synthetic
    'newton_failure' row.  The scenarios go through chord Newton in
    blocks sized from the bus count and NEWTON_BLOCK_BYTES, on the one
    factorization of the nominal Jacobian (the start of every scenario).
    Each scenario that chord leaves unsolved, because its step stalled or
    it reached the cap, then runs exact Newton alone from where chord
    stopped, under the rules and budget of pf_solve, so no scenario that
    exact Newton solves scores as a failure.  After each check,
    chord_iterations and exact_iterations hold every scenario's step
    counts in the two methods, and failed the indices of the scenarios
    whose response did not solve.
    """

    def __init__(self, case, fleet, dispatch, *, include_slack_rows=False):
        self.case = case
        self.fleet = fleet
        self.dispatch = np.asarray(dispatch, dtype=float)
        self.rows = ac_row_set(case, fleet,
                               include_slack_rows=include_slack_rows)
        self._net = _network(case)
        self.state = _require_solved(
            solve_operating_point(case, fleet, self.dispatch, net=self._net),
            "nominal power flow for evaluation")
        self._start = _start_point(case, self.state.v, self.state.theta,
                                   np.sqrt(self.state.v))
        self._lu = _Sensitivity(case, fleet, None, self.state, self._net).lu
        self.row_names = self.rows.signed_names + ("newton_failure",)
        self.chord_iterations = np.zeros(0, dtype=int)
        self.exact_iterations = np.zeros(0, dtype=int)
        self.failed = np.zeros(0, dtype=int)

    def _respond(self, xi):
        """Newton responses to the error rows of xi: chord Newton on the
        block, then exact Newton on each scenario that chord left
        unsolved.  (chord steps, exact steps, final mismatch norms,
        magnitudes, angles)."""
        p_set, q_set = _response_setpoints(self.case, self.fleet,
                                           self.state, xi)
        vmag = np.tile(self._start[0], (xi.shape[0], 1))
        theta = np.tile(self._start[1], (xi.shape[0], 1))
        chord, norm, _ = _newton(self._net, p_set, q_set, vmag, theta,
                                 self._lu)
        exact = np.zeros_like(chord)
        for i in np.flatnonzero(~(norm <= NEWTON_TOL)):
            one = slice(i, i + 1)  # views: the call advances them in place
            exact[one], norm[one], _ = _newton(
                self._net, p_set[one], q_set[one], vmag[one], theta[one])
        return chord, exact, norm, vmag, theta

    def check(self, dispatch, xi):
        """(joint violation mask over scenarios, per-row violation rates)
        of the dispatch the evaluator was built at."""
        x = np.asarray(dispatch, dtype=float)
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if not (np.isfinite(x).all() and np.isfinite(xi).all()):
            raise ValueError("dispatch and scenarios must be finite")
        if not np.array_equal(x, self.dispatch):
            raise ValueError("check needs the dispatch the evaluator was "
                             "built at")
        rows = self.rows
        violated = np.zeros((xi.shape[0], len(self.row_names)), dtype=bool)
        chord = np.zeros(xi.shape[0], dtype=int)
        exact = np.zeros(xi.shape[0], dtype=int)
        step = _block_size(self.case.n_bus)
        for lo in range(0, xi.shape[0], step):
            block = slice(lo, lo + step)
            chord[block], exact[block], norm, vmag, theta = self._respond(
                xi[block])
            solved = norm <= NEWTON_TOL
            values = rows.values(
                self.case, self.fleet,
                *_quantities(self._net, vmag, theta, rows.flows),
                self.dispatch, xi[block])
            margins = rows.rhs - rows.signs * values[:, rows.q_idx]
            violated[block, :-1] = (margins < -ROW_TOL) & solved[:, None]
            violated[block, -1] = ~solved
        self.chord_iterations, self.exact_iterations = chord, exact
        self.failed = np.flatnonzero(violated[:, -1])
        return violated.any(axis=1), violated.mean(axis=0)
