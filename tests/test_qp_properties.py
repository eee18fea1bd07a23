"""Property tests for qp_solve on random small LPs and convex QPs.

Integer data in a narrow range gives many exact degeneracies: zero rows,
duplicate rows, several rows through one vertex, and zero-curvature
directions.  The oracles are independent of the active-set engine:
HiGHS's LP objective, the KKT conditions checked here from scratch, an
LP over recession directions that says whether a problem is bounded, and
a from-scratch Farkas check of every infeasibility certificate.  HiGHS
runs only here, as an oracle: qp_solve solves no LP.
The examples and their number are fixed by the profile in conftest.py.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from ccopf import scenario_mip
from ccopf.scenario_mip import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    QuadraticCost,
    qp_solve,
)
from conftest import variable_count

TOL = 1e-7


def _ints(draw, shape, lo=-3, hi=3):
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(lo, hi), min_size=size,
                           max_size=size))
    return np.array(values, dtype=float).reshape(shape)


@st.composite
def feasible_systems(draw, *, boxed=True):
    """Rows through an integer point x0, some exactly (degenerate), with
    duplicated rows, up to two equalities, and optionally the box
    |x_i| <= 10 that keeps every convex objective bounded."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    a = _ints(draw, (m, n))
    if m:
        repeat = draw(st.lists(st.integers(0, m - 1), max_size=3))
        a = np.vstack([a, a[repeat]])
    x0 = _ints(draw, (n,))
    b = a @ x0 + _ints(draw, (a.shape[0],), 0, 2)
    if boxed:
        a = np.vstack([a, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(2 * n, 10.0)])
    a_eq = _ints(draw, (draw(st.integers(0, 2)), n))
    return LinearSystem.make(a_ineq=a, b_ineq=b, a_eq=a_eq, b_eq=a_eq @ x0,
                             n=n)


def psd_hessian(draw, n, rank):
    q = _ints(draw, (rank, n))
    return q.T @ q


def assert_kkt(cost, system, res):
    """Stationarity, primal and dual feasibility and complementarity,
    relative to the size of the data."""
    assert res.status == OPTIMAL, res.message
    x, lam, mu = res.x, res.duals_ineq, res.duals_eq
    scale = 1.0 + max(np.max(np.abs(cost.h)), np.max(np.abs(cost.g)),
                      np.max(np.abs(x)))
    stat = (cost.h @ x + cost.g + system.a_ineq.T @ lam
            + system.a_eq.T @ mu)
    slack = system.b_ineq - system.a_ineq @ x
    assert np.max(np.abs(stat), initial=0.0) <= TOL * scale
    assert np.min(slack, initial=0.0) >= -TOL * scale
    assert np.max(np.abs(system.a_eq @ x - system.b_eq),
                  initial=0.0) <= TOL * scale
    assert np.min(lam, initial=0.0) >= 0.0
    assert np.max(np.abs(lam * slack), initial=0.0) <= TOL * scale
    assert abs(res.value - cost.value(x)) <= 1e-12 * scale * scale


def descent_ray_value(cost, system):
    """min g'd over recession directions with zero curvature, |d| <= 1:
    negative exactly when the convex QP is unbounded below."""
    n = cost.n
    a_eq = np.vstack([system.a_eq, cost.h])
    res = linprog(cost.g,
                  A_ub=system.a_ineq if system.a_ineq.size else None,
                  b_ub=np.zeros(system.a_ineq.shape[0])
                  if system.a_ineq.size else None,
                  A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("form", ["lifted", "direct"])
@given(st.data())
def test_lp_through_the_active_set_engine_matches_highs(form, data):
    # direct: the LP itself, h = 0.  lifted: one extra variable y with
    # cost y^2/2 makes the Hessian nonzero, and y = 0 at the optimum.
    # Either way the LP over x runs on the active-set engine's
    # zero-curvature path.  Without the box the LP may be unbounded; the
    # recession LP decides that, because HiGHS's presolve can call an
    # unbounded LP infeasible (status 2) when it has a zero row.
    system = data.draw(feasible_systems(boxed=data.draw(st.booleans())))
    n = variable_count(system)
    g = _ints(data.draw, (n,))
    if form == "direct":
        res = qp_solve(QuadraticCost(h=np.zeros((n, n)), g=g), system)
    else:
        h = np.zeros((n + 1, n + 1))
        h[n, n] = 1.0
        lifted = LinearSystem(
            np.hstack([system.a_ineq, np.zeros((system.a_ineq.shape[0], 1))]),
            system.b_ineq,
            np.hstack([system.a_eq, np.zeros((system.a_eq.shape[0], 1))]),
            system.b_eq)
        res = qp_solve(QuadraticCost(h=h, g=np.append(g, 0.0)), lifted)
    ref = linprog(g, A_ub=system.a_ineq if system.a_ineq.size else None,
                  b_ub=system.b_ineq if system.a_ineq.size else None,
                  A_eq=system.a_eq if system.a_eq.size else None,
                  b_eq=system.b_eq if system.a_eq.size else None,
                  bounds=[(None, None)] * n, method="highs")
    if descent_ray_value(QuadraticCost(h=np.zeros((n, n)), g=g),
                         system) < -1e-9:
        assert res.status == UNBOUNDED, res.message
        assert ref.status != 0
        return
    assert ref.status == 0
    assert res.status == OPTIMAL, res.message
    assert abs(res.value - ref.fun) <= TOL * (1.0 + abs(ref.fun))


@given(st.data())
def test_positive_definite_qp_meets_kkt(data):
    system = data.draw(feasible_systems(boxed=False))
    n = variable_count(system)
    h = psd_hessian(data.draw, n, n) + np.eye(n)
    cost = QuadraticCost(h=h, g=_ints(data.draw, (n,)))
    assert_kkt(cost, system, qp_solve(cost, system))


@given(st.data())
def test_positive_semidefinite_qp_meets_kkt(data):
    system = data.draw(feasible_systems())
    n = variable_count(system)
    rank = data.draw(st.integers(1, n))
    cost = QuadraticCost(h=psd_hessian(data.draw, n, rank),
                         g=_ints(data.draw, (n,)))
    assert_kkt(cost, system, qp_solve(cost, system))


@given(st.data())
def test_zero_curvature_direction_is_bounded_or_unbounded(data):
    # No box: a direction with no curvature and negative slope is either
    # stopped by a row (OPTIMAL, KKT holds) or reported UNBOUNDED, and the
    # recession LP says which.
    system = data.draw(feasible_systems(boxed=False))
    n = variable_count(system)
    curved = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cost = QuadraticCost(h=np.diag(np.array(curved, dtype=float)),
                         g=_ints(data.draw, (n,)))
    res = qp_solve(cost, system)
    if descent_ray_value(cost, system) < -1e-9:
        assert res.status == UNBOUNDED
    else:
        assert_kkt(cost, system, res)


@st.composite
def infeasible_systems(draw):
    """A feasible system plus a contradictory pair a x <= c and
    -a x <= -c - 1 (a may be zero), some zero rows that hold, and the rows
    in a drawn order."""
    system = draw(feasible_systems(boxed=draw(st.booleans())))
    n = variable_count(system)
    a = _ints(draw, (1, n))
    c = float(draw(st.integers(-5, 5)))
    zeros = draw(st.integers(0, 2))
    rows = np.vstack([system.a_ineq, a, -a, np.zeros((zeros, n))])
    rhs = np.concatenate([system.b_ineq, [c, -c - 1.0],
                          _ints(draw, (zeros,), 0, 2)])
    order = np.array(draw(st.permutations(range(rows.shape[0]))), dtype=int)
    return LinearSystem(rows[order], rhs[order], system.a_eq, system.b_eq)


def assert_farkas(system, res):
    """An INFEASIBLE result whose certificate y >= 0, mu combines the rows
    to 0 with a negative right-hand side, checked from scratch."""
    assert res.status == INFEASIBLE, res.message
    cert = res.certificate
    assert cert is not None
    y, mu = cert["y_ineq"], cert["y_eq"]
    assert np.min(y, initial=0.0) >= 0.0
    combo = y @ system.a_ineq + mu @ system.a_eq
    assert np.max(np.abs(combo)) <= 1e-6 * max(1.0, np.max(np.abs(y),
                                                            initial=0.0))
    assert y @ system.b_ineq + mu @ system.b_eq < 0.0


def forced_phase1(cost, system):
    """qp_solve with the free start's path giving up at once (its cap is
    n + m + 10), so that phase 1's projection and the run from its point
    decide, as for a cost with no free start."""
    real = scenario_mip._homotopy

    def homotopy(*args):
        if args[-1] == sum(system.a_ineq.shape) + 10:
            return None, 0
        return real(*args)

    with mock.patch.object(scenario_mip, "_homotopy", homotopy):
        return qp_solve(cost, system)


def counted_phase1():
    """A patch of scenario_mip._phase1_point that counts its runs."""
    return mock.patch.object(scenario_mip, "_phase1_point",
                             wraps=scenario_mip._phase1_point)


@given(st.data())
def test_infeasible_system_has_a_farkas_certificate(data):
    # A quadratic cost's free path finds the certificate, a linear one's
    # phase-1 projection does; either comes from a blocking row that
    # depends on the working set.
    system = data.draw(infeasible_systems())
    n = variable_count(system)
    h = np.eye(n) if data.draw(st.booleans()) else np.zeros((n, n))
    assert_farkas(system,
                  qp_solve(QuadraticCost(h=h, g=_ints(data.draw, (n,))),
                           system))


@pytest.mark.parametrize("row", [True, False])
@pytest.mark.parametrize("curved", [True, False])
def test_inconsistent_equalities_have_a_farkas_certificate(row, curved):
    # x1 + x2 = 1 and x1 + x2 = 2, with or without the row x1 <= 5, under
    # a PD or a linear cost: phase 1's least-squares test of the
    # equalities decides (a free path keeps one of the two rows and fails
    # the KKT check on the other), and no projection runs, so the
    # certificate has no inequality weight.
    system = LinearSystem.make(
        a_ineq=[[1.0, 0.0]] if row else None, b_ineq=[5.0] if row else None,
        a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
    cost = QuadraticCost(h=np.eye(2) if curved else np.zeros((2, 2)),
                         g=np.array([1.0, -1.0]))
    with counted_phase1() as phase1, \
            mock.patch.object(scenario_mip, "_homotopy",
                              wraps=scenario_mip._homotopy) as path:
        res = qp_solve(cost, system)
    assert phase1.call_count == 1
    assert path.call_count == (1 if curved and row else 0)
    assert_farkas(system, res)
    assert not np.any(res.certificate["y_ineq"])


@given(st.data())
def test_infeasible_system_takes_no_phase_1(data):
    # With a PD cost the free start's path runs first; it cannot end on a
    # point of an empty set, so it stops at a blocking row that depends
    # on the working set, and its certificate decides without phase 1.
    system = data.draw(infeasible_systems())
    n = variable_count(system)
    cost = QuadraticCost(h=psd_hessian(data.draw, n, n) + np.eye(n),
                         g=_ints(data.draw, (n,)))
    with counted_phase1() as phase1:
        res = qp_solve(cost, system)
    assert phase1.call_count == 0
    assert_farkas(system, res)


@given(st.data())
def test_free_start_reaches_the_phase_1_optimum(data):
    # A PD cost starts at its own minimizer on the equalities and follows
    # the RHS path down to the system; a free path that gives up at once
    # leaves the run from phase 1's point.  Both are KKT-certified, with
    # one value.
    system = data.draw(feasible_systems(boxed=data.draw(st.booleans())))
    n = variable_count(system)
    cost = QuadraticCost(h=psd_hessian(data.draw, n, n) + np.eye(n),
                         g=_ints(data.draw, (n,)))
    free = qp_solve(cost, system)
    forced = forced_phase1(cost, system)
    assert_kkt(cost, system, free)
    assert_kkt(cost, system, forced)
    assert abs(free.value - forced.value) <= 1e-9 * max(1.0,
                                                        abs(forced.value))


@given(st.data())
def test_warm_start_after_loosening_matches_a_cold_solve(data):
    # A feasible PD or PSD QP is solved, its inequality bounds loosened by
    # integer amounts (many of them zero), and the loosened QP solved
    # warm from the first optimum, which moves it along the RHS path.
    # A PSD Hessian gets the box, so both QPs have an optimum.
    psd = data.draw(st.booleans())
    system = data.draw(feasible_systems(
        boxed=psd or data.draw(st.booleans())))
    n = variable_count(system)
    if psd:
        h = psd_hessian(data.draw, n, data.draw(st.integers(1, n)))
    else:
        h = psd_hessian(data.draw, n, n) + np.eye(n)
    cost = QuadraticCost(h=h, g=_ints(data.draw, (n,)))
    first = qp_solve(cost, system)
    assert first.status == OPTIMAL, first.message
    delta = _ints(data.draw, (system.a_ineq.shape[0],), 0, 2)
    loosened = LinearSystem(system.a_ineq, system.b_ineq + delta,
                            system.a_eq, system.b_eq)
    warm = qp_solve(cost, loosened, warm_start=first)
    cold = qp_solve(cost, loosened)
    assert warm.status == cold.status
    assert abs(warm.value - cold.value) <= 1e-9 * max(1.0, abs(cold.value))
    assert_kkt(cost, loosened, warm)
