"""Oracle tests for the QP engine and the k-of-S selection solver.

Two independent oracles, both exhaustive rather than iterative:
  * qp_oracle enumerates every candidate active set of an inequality-
    constrained QP and solves the resulting KKT equality system directly;
  * selection_oracle enumerates every size-k scenario subset and takes the
    best feasible QP value.
"""

import functools
import itertools
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccopf.cli import _build_spec, _choose_params, _resolve_run
from ccopf.dc_model import (
    CcSystem,
    assemble_cc_system,
    balance_equality,
    make_cost,
)
from ccopf.scenario_mip import (
    GAP_LIMIT,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    QpSubproblemResult,
    QuadraticCost,
    SelectionProblem,
    SolverOptions,
    _Shared,
    build_selection_from_ccopf,
    greedy_incumbent,
    qp_solve,
    solve_selection,
)
from ccopf.scenarios import sample


def qp_oracle(cost, system):
    """Exhaustive active-set enumeration for small strictly convex QPs.

    For every subset W of inequality rows, solve the KKT equality system
    [[H, Aw'], [Aw, 0]] (x, y) = (-g, bw) and keep stationary points that
    are primal feasible with nonnegative inequality multipliers.
    """
    h, g = cost.h, cost.g
    n = g.size
    a_ineq, b_ineq = system.a_ineq, system.b_ineq
    a_eq, b_eq = system.a_eq, system.b_eq
    m = a_ineq.shape[0]
    best = None
    for size in range(min(m, n) + 1):
        for rows in itertools.combinations(range(m), size):
            a_act = np.vstack([a_eq, a_ineq[list(rows)]])
            b_act = np.concatenate([b_eq, b_ineq[list(rows)]])
            na = a_act.shape[0]
            kkt = np.block([[h, a_act.T], [a_act, np.zeros((na, na))]])
            rhs = np.concatenate([-g, b_act])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.max(np.abs(kkt @ sol - rhs), initial=0.0) > 1e-8:
                continue
            x, y = sol[:n], sol[n:]
            lam = y[a_eq.shape[0]:]
            if lam.size and np.min(lam) < -1e-8:
                continue
            if m and np.max(a_ineq @ x - b_ineq) > 1e-8:
                continue
            val = cost.value(x)
            if best is None or val < best[0]:
                best = (val, x)
    return best


def selection_oracle(problem):
    """Best QP value over all exactly-k scenario subsets (or INFEASIBLE)."""
    s = problem.n_scenarios
    best = None
    for subset in itertools.combinations(range(s), problem.k):
        parts_a = [problem.base.a_ineq] + [problem.a] * len(subset)
        parts_b = [problem.base.b_ineq] + [problem.b[j] for j in subset]
        system = LinearSystem(np.vstack(parts_a), np.concatenate(parts_b),
                              problem.base.a_eq, problem.base.b_eq)
        res = qp_solve(problem.cost, system)
        if res.status == OPTIMAL and (best is None or res.value < best):
            best = res.value
    return best


def phase1_solve(cost, system, monkeypatch):
    """qp_solve cold from phase 1's point: the free start's path gives up
    at once, as if the cost were flat on the equalities."""
    from ccopf import scenario_mip

    with monkeypatch.context() as patch:
        patch.setattr(scenario_mip, "_homotopy",
                      on_the_warm_or_free_path((None, 0)))
        return qp_solve(cost, system)


def on_the_warm_or_free_path(stand_in):
    """A stand-in for scenario_mip._homotopy: stand_in answers the call on
    the warm or free path (cap n + m + 10), and the real homotopy runs
    phase 1's projection and the run from its point (cap 50 (n + m + 10))."""
    from ccopf import scenario_mip

    real = scenario_mip._homotopy

    def homotopy(h, g, system, start, scale, eq_rows, h_max, max_iter):
        if max_iter == sum(system.a_ineq.shape) + 10:
            return stand_in
        return real(h, g, system, start, scale, eq_rows, h_max, max_iter)

    return homotopy


def counting_phase1(monkeypatch):
    """Patch scenario_mip._phase1_point to record its runs; returns the
    list."""
    from ccopf import scenario_mip

    calls = []
    real_phase1 = scenario_mip._phase1_point

    def counted(*args):
        calls.append(1)
        return real_phase1(*args)

    monkeypatch.setattr(scenario_mip, "_phase1_point", counted)
    return calls


def random_qp(rng, n, m, *, strictly_convex=True):
    q = rng.normal(size=(n, n))
    h = q.T @ q + (np.eye(n) if strictly_convex else 0.0)
    g = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    x_int = rng.normal(size=n)
    b = a @ x_int + np.abs(rng.normal(size=m)) + 0.1
    return QuadraticCost(h=h, g=g), LinearSystem.make(a_ineq=a, b_ineq=b)


class TestQpSolve:
    def test_scalar_bound(self):
        cost = QuadraticCost(h=np.array([[2.0]]), g=np.array([0.0]))
        system = LinearSystem.make(a_ineq=[[-1.0]], b_ineq=[-3.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(3.0, abs=1e-9)
        assert res.value == pytest.approx(9.0, abs=1e-8)
        assert res.duals_ineq[0] == pytest.approx(6.0, abs=1e-7)
        assert res.kkt_residual <= 1e-7

    def test_equality_projection(self):
        cost = QuadraticCost(h=np.eye(2), g=np.zeros(2))
        system = LinearSystem.make(a_eq=[[1.0, 1.0]], b_eq=[2.0], n=2)
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert res.duals_eq[0] == pytest.approx(-1.0, abs=1e-8)

    def test_lp_path_duals(self):
        cost = QuadraticCost(h=np.zeros((2, 2)), g=np.array([1.0, 2.0]))
        system = LinearSystem.make(
            a_ineq=[[-1.0, 0.0], [0.0, -1.0]], b_ineq=[0.0, 0.0],
            a_eq=[[1.0, 1.0]], b_eq=[1.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        # Stationarity under our sign convention: g + A'lam + E'mu = 0.
        stat = (cost.g + system.a_ineq.T @ res.duals_ineq
                + system.a_eq.T @ res.duals_eq)
        np.testing.assert_allclose(stat, 0.0, atol=1e-8)
        assert res.kkt_residual <= 1e-7

    def test_infeasible_with_farkas_certificate(self):
        cost = QuadraticCost(h=np.zeros((1, 1)), g=np.array([1.0]))
        system = LinearSystem.make(a_ineq=[[-1.0], [1.0]],
                                   b_ineq=[-1.0, 0.0])  # x >= 1 and x <= 0
        res = qp_solve(cost, system)
        assert res.status == INFEASIBLE
        cert = res.certificate
        assert cert is not None
        y = cert["y_ineq"]
        assert np.all(y >= -1e-12)
        combo = y @ system.a_ineq
        assert np.max(np.abs(combo)) <= 1e-6 * max(1.0, np.max(y))
        assert y @ system.b_ineq < -1e-9

    def test_infeasible_quadratic_also_certified(self):
        cost = QuadraticCost(h=np.eye(1), g=np.zeros(1))
        system = LinearSystem.make(a_ineq=[[-1.0], [1.0]],
                                   b_ineq=[-2.0, 1.0])  # x >= 2 and x <= 1
        res = qp_solve(cost, system)
        assert res.status == INFEASIBLE
        assert res.certificate is not None

    def test_free_path_decides_infeasibility_without_phase_1(
            self, monkeypatch):
        # The free start x = 0 at b0 = (1, 1): x >= 1 enters at t = 1/2,
        # then x <= 0 blocks at t = 2/3 and depends on it, with no row
        # free to leave.  y = e_0 - c = (1, 1), scaled to ||a_i||'y = 1.
        calls = counting_phase1(monkeypatch)
        cost = QuadraticCost(h=np.eye(1), g=np.zeros(1))
        system = LinearSystem.make(a_ineq=[[1.0], [-1.0]],
                                   b_ineq=[0.0, -1.0])  # x <= 0 and x >= 1
        res = qp_solve(cost, system)
        assert res.status == INFEASIBLE
        assert calls == [] and res.iterations == 2
        np.testing.assert_array_equal(res.certificate["y_ineq"], [0.5, 0.5])
        assert res.certificate["combined_rhs"] == -0.5

    @pytest.mark.parametrize("curved, phase1", [(True, []), (False, [1])],
                             ids=["curved", "linear"])
    def test_zero_row_with_negative_bound_is_infeasible(self, curved, phase1,
                                                        monkeypatch):
        # 0 x <= -1 can never hold: the overloaded-network case, where a
        # row's flow sensitivities vanish but its bound is already broken.
        # A PD cost's free path decides; a linear one has no free start,
        # and phase 1's projection decides.  Either way the zero row,
        # weighing 1, is the whole certificate.
        calls = counting_phase1(monkeypatch)
        cost = QuadraticCost(h=np.eye(2) if curved else np.zeros((2, 2)),
                             g=np.array([0.0, 1.0]))
        system = LinearSystem.make(a_ineq=[[1.0, 0.0], [0.0, 0.0]],
                                   b_ineq=[5.0, -1.0])
        res = qp_solve(cost, system)
        assert res.status == INFEASIBLE
        assert calls == phase1
        np.testing.assert_array_equal(res.certificate["y_ineq"], [0.0, 1.0])
        assert res.certificate["combined_rhs"] == -1.0

    @pytest.mark.parametrize("bound", [0.0, 2.0])
    def test_zero_row_with_nonnegative_bound_is_optimal(self, bound):
        cost = QuadraticCost(h=np.eye(2), g=np.array([-7.0, 1.0]))
        system = LinearSystem.make(a_ineq=[[1.0, 0.0], [0.0, 0.0]],
                                   b_ineq=[5.0, bound])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL, res.message
        np.testing.assert_allclose(res.x, [5.0, -1.0], atol=1e-9)
        assert res.kkt_residual <= 1e-9

    @pytest.mark.parametrize("half_width, point, tight, projection", [
        (0.5, [1.5, -0.5, 0.0], 3, 3), (1.5, [0.5, 0.0, 0.0], 1, 2)],
        ids=["0.5", "1.5"])
    def test_run_from_the_projection_drops_its_tight_rows(
            self, half_width, point, tight, projection, monkeypatch):
        # Phase 1 projects the origin, the least-squares point of no
        # equalities, onto the box: a point on its boundary, here with
        # three tight rows or one.  The run from there starts with those
        # rows at zero multipliers; each leaves at the first breakpoint it
        # reaches, and one more step reaches the interior minimizer with
        # an empty working set.  (A PD cost skips phase 1; TestFreeStart
        # covers that path.)
        from ccopf import scenario_mip

        centre = np.array([2.0, -1.0, 0.5])
        target = centre + half_width * np.array([0.4, -0.3, 0.1])
        cost = QuadraticCost(h=np.eye(3), g=-target)
        system = LinearSystem.make(
            a_ineq=np.vstack([np.eye(3), -np.eye(3)]),
            b_ineq=np.concatenate([centre + half_width,
                                   half_width - centre]))
        (x, *_), spent = scenario_mip._phase1_point(system, [], 50 * 19)
        assert spent == projection
        np.testing.assert_array_equal(x, point)
        assert np.sum(system.b_ineq - system.a_ineq @ x == 0.0) == tight
        res = phase1_solve(cost, system, monkeypatch)
        assert res.status == OPTIMAL
        assert res.iterations == projection + tight + 1
        assert res.working == () and np.all(res.duals_ineq == 0.0)
        np.testing.assert_allclose(res.x, target, atol=1e-12)

    def test_iterations_are_reported_on_every_path(self, monkeypatch):
        from ccopf import scenario_mip

        cost = QuadraticCost(h=np.eye(2), g=np.array([-1.0, 0.5]))
        system = LinearSystem.make(a_ineq=[[1.0, 1.0]], b_ineq=[0.25])
        optimal = qp_solve(cost, system)
        assert optimal.status == OPTIMAL and optimal.iterations >= 1
        unbounded = qp_solve(
            QuadraticCost(h=np.diag([2.0, 0.0]), g=np.array([-2.0, 1.0])),
            LinearSystem.make(a_ineq=[[1.0, 0.0]], b_ineq=[10.0]))
        assert unbounded.status == UNBOUNDED and unbounded.iterations >= 1
        # x1 <= 0 and x1 >= 1: the free start's path tightens x1 <= 2 to
        # x1 <= 0 (x1 <= 0 enters at the first breakpoint), then x1 >= 1
        # becomes tight at the second, depends on x1 <= 0 and cannot take
        # its place, so the path's own certificate decides.
        infeasible = qp_solve(cost, LinearSystem.make(
            a_ineq=[[1.0, 0.0], [-1.0, 0.0]], b_ineq=[0.0, -1.0]))
        assert infeasible.status == INFEASIBLE
        assert infeasible.iterations == 2

        forced = phase1_solve(cost, system, monkeypatch)
        assert forced.status == OPTIMAL and forced.iterations >= 1
        monkeypatch.setattr(scenario_mip, "_KKT_TOL", -1.0)
        failed = qp_solve(cost, system)
        assert failed.status == NUMERICAL_FAILURE
        # the free start's path, then phase 1's projection and the run from
        # its point
        assert failed.iterations == optimal.iterations + forced.iterations
        monkeypatch.undo()

        # A step that always pushes x into x <= 1 while the cost pulls it
        # back: the row enters and leaves at every breakpoint, so the free
        # start's path stops at its cap n + m + 10 = 12 and phase 1's
        # projection at its cap 50 * (n + m + 10) = 600.
        monkeypatch.setattr(scenario_mip, "_cholesky_step",
                            lambda hz, gz, h_max: np.full_like(gz, 1e3))
        capped = qp_solve(QuadraticCost(h=np.eye(1), g=np.zeros(1)),
                          LinearSystem.make(a_ineq=[[1.0]], b_ineq=[1.0]))
        assert capped.status == NUMERICAL_FAILURE
        assert capped.iterations == 12 + 600
        assert "iteration cap 600" in capped.message

    def test_unbounded_lp(self):
        cost = QuadraticCost(h=np.zeros((1, 1)), g=np.array([1.0]))
        system = LinearSystem.make(a_ineq=[[1.0]], b_ineq=[5.0])  # x <= 5
        res = qp_solve(cost, system)
        assert res.status == UNBOUNDED
        # Feasible at x = 0 and unbounded along (-1, -1, 0); HiGHS's
        # presolve calls this LP infeasible because of its zero row.
        system = LinearSystem.make(
            a_ineq=[[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0]], b_ineq=[0.0, 0.0, 1.0, 0.0])
        cost = QuadraticCost(h=np.zeros((3, 3)), g=np.array([0.0, 1.0, -1.0]))
        assert qp_solve(cost, system).status == UNBOUNDED

    def test_unbounded_singular_hessian(self):
        # Quadratic in x1 only; x2 enters linearly and is free below.
        cost = QuadraticCost(h=np.diag([2.0, 0.0]), g=np.array([-2.0, 1.0]))
        system = LinearSystem.make(a_ineq=[[1.0, 0.0]], b_ineq=[10.0])
        res = qp_solve(cost, system)
        assert res.status == UNBOUNDED

    def test_singular_hessian_bounded_by_constraint(self):
        cost = QuadraticCost(h=np.diag([2.0, 0.0]), g=np.array([-2.0, 1.0]))
        system = LinearSystem.make(a_ineq=[[0.0, -1.0]], b_ineq=[0.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-8)
        assert res.value == pytest.approx(-1.0, abs=1e-8)
        assert res.kkt_residual <= 1e-7

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(3, 9))
            cost, system = random_qp(rng, n, m)
            res = qp_solve(cost, system)
            assert res.status == OPTIMAL, f"trial {trial}: {res.message}"
            oracle = qp_oracle(cost, system)
            assert oracle is not None
            assert res.value == pytest.approx(oracle[0], rel=1e-7, abs=1e-9)
            assert res.kkt_residual <= 1e-7

    def test_large_cost_coefficients_stay_certified(self):
        # Dollar-scale coefficients: tolerances must not be absolute-naive.
        cost = QuadraticCost(h=np.diag([860.0, 4000.0]),
                             g=np.array([2000.0, 2000.0]))
        system = LinearSystem.make(
            a_ineq=[[-1.0, 0.0], [0.0, -1.0]], b_ineq=[0.0, 0.0],
            a_eq=[[1.0, 1.0]], b_eq=[2.19])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        assert res.kkt_residual <= 1e-7
        oracle = qp_oracle(cost, system)
        assert res.value == pytest.approx(oracle[0], rel=1e-9)

    def test_optimum_failing_the_kkt_check_is_a_numerical_failure(
            self, monkeypatch):
        from ccopf import scenario_mip

        # Unit-scale cost, so the normalized residual is the reported one.
        # The free start's answer fails the check too, so the message
        # names the residual of the run from phase 1's point.
        cost = QuadraticCost(h=np.eye(2), g=np.array([-1.0, 0.5]))
        system = LinearSystem.make(a_ineq=[[1.0, 1.0]], b_ineq=[0.25])
        res = phase1_solve(cost, system, monkeypatch)
        assert res.status == OPTIMAL
        monkeypatch.setattr(scenario_mip, "_KKT_TOL", -1.0)
        failed = qp_solve(cost, system)
        assert failed.status == NUMERICAL_FAILURE
        assert failed.x is None
        assert f"KKT residual {res.kkt_residual:.3e}" in failed.message

    def test_dependent_equality_rows(self):
        # The second and third equalities repeat the first (one scaled):
        # the engine keeps one, and the others get zero multipliers.
        cost = QuadraticCost(h=np.eye(2), g=np.zeros(2))
        system = LinearSystem.make(
            a_ineq=[[1.0, 0.0]], b_ineq=[0.5],
            a_eq=[[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]], b_eq=[2.0, 4.0, 2.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        np.testing.assert_allclose(res.x, [0.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(res.duals_eq, [-1.5, 0.0, 0.0],
                                   atol=1e-12)
        assert res.kkt_residual <= 1e-12

    def test_warm_start_keeps_a_working_set_that_stays_optimal(self):
        # min |x - (5, 5)|^2 / 2 with both bounds binding: loosening them
        # moves the optimum along the same working set, one step.
        cost = QuadraticCost(h=np.eye(2), g=np.array([-5.0, -5.0]))
        a = np.eye(2)
        system = LinearSystem.make(a_ineq=a, b_ineq=[1.0, 2.0])
        first = qp_solve(cost, system)
        assert first.working == (0, 1)
        assert first.rhs is system.b_ineq
        loosened = LinearSystem.make(a_ineq=a, b_ineq=[3.0, 2.5])
        warm = qp_solve(cost, loosened, warm_start=first)
        assert warm.status == OPTIMAL
        assert warm.iterations == 1
        assert warm.working == (0, 1)
        np.testing.assert_allclose(warm.x, [3.0, 2.5], atol=1e-12)
        np.testing.assert_allclose(warm.duals_ineq, [2.0, 2.5], atol=1e-12)

    def test_flat_cost_warm_start_stays_on_the_path(self, monkeypatch):
        # (x1 + x2)^2 / 2 + x1 + x2 is flat along (1, -1).  The cold solve
        # starts from phase 1 (no free start) and its least-squares step
        # reaches (-0.5, -0.5); loosening the box keeps that point, and the
        # warm path certifies it with one least-squares step and no phase 1.
        cost = QuadraticCost(h=np.ones((2, 2)), g=np.ones(2))
        a = np.vstack([np.eye(2), -np.eye(2)])
        first = qp_solve(cost, LinearSystem.make(a_ineq=a,
                                                 b_ineq=np.full(4, 10.0)))
        assert first.status == OPTIMAL
        phase1 = counting_phase1(monkeypatch)
        warm = qp_solve(cost, LinearSystem.make(a_ineq=a,
                                                b_ineq=np.full(4, 12.0)),
                        warm_start=first)
        assert warm.status == OPTIMAL
        assert phase1 == [] and warm.iterations == 1
        np.testing.assert_allclose(warm.x, [-0.5, -0.5], atol=1e-12)
        assert warm.value == pytest.approx(-0.5, abs=1e-12)

    def test_dependent_row_becoming_tight_is_exchanged(self, monkeypatch):
        from ccopf import scenario_mip

        # x1 <= b1, x2 <= b2 and x1 + x2 <= 3 towards (5, 5).  From
        # b = (1, 1) to (3, 3) the optimum climbs the diagonal until
        # x1 + x2 = 3 is tight at t = 1/4; that row depends on the two
        # bounds, so it replaces x1 <= b1 (the lower index of a tie), the
        # multiplier of x2 <= b2 then falls through zero and it leaves.
        cost = QuadraticCost(h=np.eye(2), g=np.array([-5.0, -5.0]))
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        first = qp_solve(cost, LinearSystem.make(a_ineq=a,
                                                 b_ineq=[1.0, 1.0, 3.0]))
        assert first.working == (0, 1)
        loosened = LinearSystem.make(a_ineq=a, b_ineq=[3.0, 3.0, 3.0])
        paths = []
        real_path = scenario_mip._homotopy

        def recorded(*args):
            paths.append(real_path(*args))
            return paths[-1]

        monkeypatch.setattr(scenario_mip, "_homotopy", recorded)
        warm = qp_solve(cost, loosened, warm_start=first)
        cold = qp_solve(cost, loosened)
        assert len(paths) == 2  # the warm path, then the cold free start's
        found, spent = paths[0]
        assert found is not None and spent == 3  # the path, no fallback
        assert paths[1][0] is not None
        assert warm.status == OPTIMAL
        assert warm.working == (2,)
        assert warm.iterations == 3
        np.testing.assert_allclose(warm.x, [1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(warm.duals_ineq, [0.0, 0.0, 3.5],
                                   atol=1e-12)
        assert warm.value == pytest.approx(cold.value, rel=1e-12)

    def test_path_failure_falls_back_to_the_phase_1_run(self, monkeypatch):
        from ccopf import scenario_mip

        rng = np.random.default_rng(5)
        cost, system = random_qp(rng, 4, 10)
        first = qp_solve(cost, system)
        loosened = LinearSystem(system.a_ineq,
                                system.b_ineq + rng.uniform(0.0, 1.0, 10),
                                system.a_eq, system.b_eq)
        # A warm path that gives up falls back to phase 1, not to the
        # free start, so the reference is the solve from phase 1.
        cold = phase1_solve(cost, loosened, monkeypatch)
        monkeypatch.setattr(scenario_mip, "_homotopy",
                            on_the_warm_or_free_path((None, 3)))
        phase1 = counting_phase1(monkeypatch)
        warm = qp_solve(cost, loosened, warm_start=first)
        assert first.status == cold.status == warm.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
        # the path's 3, then the cold solve: phase 1's projection and the
        # run from its point
        assert warm.iterations == 3 + cold.iterations
        assert phase1 == [1]

    def test_path_failure_keeps_its_iterations_when_phase_1_decides(
            self, monkeypatch):
        from ccopf import scenario_mip

        # x <= 1 tightened to x <= -1 under x >= 0: the warm path gives up
        # after 3 iterations and phase 1's projection finds the system
        # infeasible after 2 of its own.  Its free start x = 0 at b0 =
        # (1, 1): x <= -1 enters at t = 1/2, and x >= 0 blocks at t = 2/3.
        cost = QuadraticCost(h=np.eye(1), g=np.zeros(1))
        a = np.array([[1.0], [-1.0]])
        first = qp_solve(cost, LinearSystem.make(a_ineq=a, b_ineq=[1.0, 0.0]))
        tightened = LinearSystem.make(a_ineq=a, b_ineq=[-1.0, 0.0])
        monkeypatch.setattr(scenario_mip, "_homotopy",
                            on_the_warm_or_free_path((None, 3)))
        phase1 = counting_phase1(monkeypatch)
        warm = qp_solve(cost, tightened, warm_start=first)
        assert first.status == OPTIMAL
        assert warm.status == INFEASIBLE and phase1 == [1]
        np.testing.assert_array_equal(warm.certificate["y_ineq"], [0.5, 0.5])
        assert warm.iterations == 3 + 2

    def test_path_answer_failing_the_kkt_check_falls_back(self,
                                                          monkeypatch):
        from ccopf import scenario_mip

        # A path that ends at a wrong point is not trusted: its KKT check
        # fails and the cold solve answers instead.
        cost = QuadraticCost(h=np.eye(2), g=np.array([-5.0, -5.0]))
        a = np.eye(2)
        first = qp_solve(cost, LinearSystem.make(a_ineq=a, b_ineq=[1.0, 2.0]))
        loosened = LinearSystem.make(a_ineq=a, b_ineq=[3.0, 2.5])
        monkeypatch.setattr(
            scenario_mip, "_homotopy",
            on_the_warm_or_free_path(((np.zeros(2), [0, 1], np.zeros(2)), 1)))
        warm = qp_solve(cost, loosened, warm_start=first)
        assert warm.status == OPTIMAL
        np.testing.assert_allclose(warm.x, [3.0, 2.5], atol=1e-12)
        assert warm.iterations > 1


def make_threshold_problem(a_values, k, *, quadratic=False):
    """min x (or x^2/2 + x) subject to >= k of the blocks x >= a_j.

    The base row is the scenario row -x <= max_j (-a_j), which every
    completion implies, so the base adds nothing to any node."""
    h = np.array([[1.0]]) if quadratic else np.zeros((1, 1))
    cost = QuadraticCost(h=h, g=np.array([1.0]))
    b = -np.asarray(a_values, dtype=float)[:, None]
    base = LinearSystem.make(a_ineq=[[-1.0]], b_ineq=b.max(axis=0))
    return SelectionProblem(cost=cost, base=base, b=b, k=k)


def mask(s, indices):
    """Boolean mask over s scenarios, set at the given indices."""
    out = np.zeros(s, dtype=bool)
    out[list(indices)] = True
    return out


def random_selection_problem(rng, *, n_max=4, s_max=12):
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(5, s_max + 1))
    k = int(rng.integers(max(1, s - 4), s + 1))
    q = rng.normal(size=(n, n))
    cost = QuadraticCost(h=q.T @ q + np.eye(n), g=rng.normal(size=n))
    # The box |x_i| <= 5 keeps every subset problem bounded and usually
    # feasible.  It is a base row set that every scenario repeats, and the
    # random rows get the base bound 5 ||a_i||_1, which the box implies.
    box = np.vstack([np.eye(n), -np.eye(n)])
    shared = rng.normal(size=(int(rng.integers(1, 4)), n))
    b = np.array([
        shared @ rng.normal(size=n) * 0.3 + rng.normal(size=shared.shape[0])
        for _ in range(s)])
    base = LinearSystem.make(
        a_ineq=np.vstack([box, shared]),
        b_ineq=np.concatenate([np.full(2 * n, 5.0),
                               5.0 * np.abs(shared).sum(axis=1)]))
    b = np.hstack([np.full((s, 2 * n), 5.0), b])
    return SelectionProblem(cost=cost, base=base, b=b, k=k)


class TestSelectionProblem:
    def shaped(self, a, b, k=1):
        """Rows a with the base bound max_j b_j, which every completion
        implies."""
        cost = QuadraticCost(h=np.eye(2), g=np.zeros(2))
        base = LinearSystem.make(a_ineq=a, b_ineq=np.max(b, axis=0))
        return SelectionProblem(cost=cost, base=base, b=b, k=k)

    @pytest.mark.parametrize("a, b", [
        (np.ones((3, 1)), np.zeros((4, 3))),   # a has the wrong width
        (np.ones((3, 2)), np.zeros((4, 3, 1))),  # b has a third axis
        (np.ones((3, 2)), np.zeros((4, 2))),   # b rows do not match a
        (np.ones((3, 2)), np.zeros(3)),         # b is not a matrix
    ])
    def test_rejects_misshaped_lhs_or_rhs(self, a, b):
        cost = QuadraticCost(h=np.eye(2), g=np.zeros(2))
        base = LinearSystem.make(a_ineq=a, b_ineq=np.zeros(len(a)))
        with pytest.raises(ValueError, match="must be"):
            SelectionProblem(cost=cost, base=base, b=b, k=1)

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_k_outside_one_to_s(self, k):
        with pytest.raises(ValueError, match="outside"):
            self.shaped(np.ones((3, 2)), np.zeros((4, 3)), k=k)

    def test_node_system_takes_rowwise_minimum_rhs(self):
        def problem_at(k):
            return self.shaped([[1.0, 0.0], [0.0, 1.0]],
                               [[3.0, 1.0], [2.0, 4.0], [5.0, 0.5]], k=k)

        problem = problem_at(2)
        assert problem.node_system(mask(3, [])) is problem.base
        system = problem.node_system(mask(3, [0, 1]))
        np.testing.assert_array_equal(system.a_ineq, problem.a)
        np.testing.assert_array_equal(system.b_ineq, [2.0, 1.0])
        # Relaxation budget S - k - |R| = 1 over undecided {0, 2}: the cap
        # per row is the second smallest undecided RHS.
        enforced, relaxed = mask(3, [1]), mask(3, [])
        capped = problem.node_system(enforced, relaxed)
        np.testing.assert_array_equal(capped.b_ineq, [2.0, 1.0])
        # Budget 0: the cap is the smallest undecided RHS.
        np.testing.assert_array_equal(
            problem_at(3).node_system(enforced, relaxed).b_ineq, [2.0, 0.5])
        # Budget 2 covers both undecided scenarios: no cap.
        np.testing.assert_array_equal(
            problem_at(1).node_system(enforced, relaxed).b_ineq, [2.0, 4.0])
        np.testing.assert_array_equal(problem.blocks[2][1], [5.0, 0.5])

    def test_scenario_weights_go_to_the_row_owner(self):
        problem = self.shaped([[1.0, 0.0], [0.0, 1.0]],
                              [[2.0, 1.0], [2.0, 4.0], [5.0, 0.5]])
        # Row 0 ties between scenarios 0 and 1 (lowest index owns it);
        # row 1 is owned by scenario 2; scenario 1 is left with nothing.
        weights = problem.scenario_weights(mask(3, [0, 1, 2]), [3.0, 0.25])
        np.testing.assert_array_equal(weights, [3.0, 0.0, 0.25])
        weights = problem.scenario_weights(mask(3, [1, 2]), [3.0, 0.25])
        np.testing.assert_array_equal(weights, [0.0, 3.0, 0.25])

    def test_scenario_weights_match_a_row_by_row_loop(self):
        rng = np.random.default_rng(5)
        problem = random_selection_problem(rng, s_max=12)
        problem = SelectionProblem(
            cost=problem.cost, base=problem.base,
            b=np.round(problem.b, 1), k=problem.k)  # rounding makes ties
        enforced = [0, 2, 3, 4]
        system = problem.node_system(mask(problem.n_scenarios, enforced))
        lam = np.abs(rng.normal(size=system.b_ineq.size))
        lam[::3] = 0.0
        # The box rows repeat the base bound, so no scenario owns them.
        expected = np.zeros(problem.n_scenarios)
        for row in range(problem.a.shape[0]):
            rhs = [problem.b[j][row] for j in enforced]
            if min(rhs) < problem.base.b_ineq[row]:
                expected[enforced[rhs.index(min(rhs))]] += lam[row]
        np.testing.assert_array_equal(
            problem.scenario_weights(mask(problem.n_scenarios, enforced),
                                     lam), expected)


class TestMergedRowSet:
    """build_selection_from_ccopf's base rows are the shared rows, so a
    node system is one row set a x <= min(base bound, enforced bound).
    The reference is the stacked system: base rows, then one copy of a."""

    @pytest.fixture(scope="class")
    def problem(self, case14, fleet14):
        rng = np.random.default_rng(17)
        xi = rng.normal(scale=0.05, size=(12, fleet14.n_vre))
        xi[0] = 0.0  # scenario 0 sits exactly on the base bound
        xi[5] = xi[3]  # scenarios 3 and 5 tie on every row
        return build_selection_from_ccopf(
            assemble_cc_system(case14, fleet14), xi, make_cost(case14), k=9,
            equalities=balance_equality(case14, fleet14))

    @staticmethod
    def stacked(problem, enforced):
        base = problem.base
        return LinearSystem(np.vstack([base.a_ineq, problem.a]),
                            np.concatenate([base.b_ineq,
                                            problem.b[enforced].min(axis=0)]),
                            base.a_eq, base.b_eq)

    def test_node_system_has_one_row_per_shared_row(self, problem):
        m, n = problem.a.shape
        for enforced, relaxed in [(range(12), None), ([0, 3, 5], None),
                                  ([1], mask(12, [0, 3]))]:
            system = problem.node_system(mask(12, enforced), relaxed)
            assert system.a_ineq.shape == (m, n)
            assert system.a_eq is problem.base.a_eq

    @pytest.mark.parametrize("enforced", [[0, 3, 5], [3, 5]])
    def test_feasible_set_equals_the_stacked_systems(self, problem, enforced):
        merged = problem.node_system(mask(12, enforced))
        ref = self.stacked(problem, enforced)
        m = problem.a.shape[0]

        def holds(values):
            in_merged = values <= merged.b_ineq
            in_ref = np.concatenate([values, values]) <= ref.b_ineq
            return in_merged, in_ref.reshape(2, m).all(axis=0)

        # Feasibility depends on x only through the shared row values, so
        # points given by their row values can sit exactly on a tie.
        b_min = problem.b[enforced].min(axis=0)
        assert np.any(b_min == problem.base.b_ineq) == (0 in enforced)
        exact = [problem.base.b_ineq, b_min, merged.b_ineq]
        exact += [np.nextafter(v, np.inf) for v in exact]
        for values in exact:
            in_merged, in_ref = holds(values)
            np.testing.assert_array_equal(in_merged, in_ref)
        # Random dispatches around the node optimum, itself on active rows.
        opt = qp_solve(problem.cost, ref)
        assert opt.status == OPTIMAL
        rng = np.random.default_rng(3)
        points = [opt.x] + [opt.x + rng.normal(scale=0.02, size=opt.x.size)
                            for _ in range(200)]
        feasible = []
        for x in points:
            in_merged, in_ref = holds(problem.a @ x)
            np.testing.assert_array_equal(in_merged, in_ref)
            feasible.append(in_ref.all())
        assert 0 < sum(feasible) < len(points)
        merged_opt = qp_solve(problem.cost, merged)
        assert merged_opt.value == pytest.approx(opt.value, rel=1e-12)

    @pytest.mark.parametrize("enforced", [[0, 3, 5], [3, 5]])
    def test_scenario_weights_match_the_stacked_row_loop(self, problem,
                                                         enforced):
        m = problem.a.shape[0]
        rng = np.random.default_rng(9)
        lam = np.abs(rng.normal(size=m))
        lam[::4] = 0.0
        # In the stacked system the base rows come first, so on a tie the
        # base row carries the weight and no scenario gets it; otherwise
        # the lowest-index enforced scenario with the smallest bound does.
        expected = np.zeros(problem.n_scenarios)
        given_to_base = 0
        for row in range(m):
            rhs = [problem.b[j][row] for j in enforced]
            if min(rhs) < problem.base.b_ineq[row]:
                expected[enforced[rhs.index(min(rhs))]] += lam[row]
            else:
                given_to_base += 1
        assert given_to_base > 0
        assert expected[5] == 0.0 and expected[3] > 0.0
        np.testing.assert_array_equal(
            problem.scenario_weights(mask(12, enforced), lam), expected)


class TestSolveSelection:
    def test_threshold_toy(self):
        problem = make_threshold_problem([1.0, 5.0, 9.0], k=2)
        sol = solve_selection(problem)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(5.0, abs=1e-9)
        assert sol.x_star[0] == pytest.approx(5.0, abs=1e-9)
        np.testing.assert_array_equal(sol.z_star, [0, 0, 1])

    def test_threshold_toy_quadratic(self):
        problem = make_threshold_problem([1.0, 5.0, 9.0], k=2,
                                         quadratic=True)
        sol = solve_selection(problem)
        assert sol.status == OPTIMAL
        # x^2/2 + x is increasing for x >= 0, so the same scenario wins.
        assert sol.x_star[0] == pytest.approx(5.0, abs=1e-8)

    def test_k_equals_s_matches_direct_qp(self):
        rng = np.random.default_rng(3)
        problem = random_selection_problem(rng)
        all_k = SelectionProblem(cost=problem.cost, base=problem.base,
                                 b=problem.b, k=problem.n_scenarios)
        sol = solve_selection(all_k)
        parts_a = [problem.base.a_ineq] + [problem.a] * problem.n_scenarios
        parts_b = [problem.base.b_ineq] + list(problem.b)
        direct = qp_solve(problem.cost,
                          LinearSystem(np.vstack(parts_a),
                                       np.concatenate(parts_b),
                                       problem.base.a_eq,
                                       problem.base.b_eq))
        assert sol.status == direct.status == OPTIMAL
        assert sol.objective == pytest.approx(direct.value, rel=1e-9)
        assert int(np.sum(sol.z_star)) == 0

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(11)
        solved = 0
        for trial in range(15):
            problem = random_selection_problem(rng, s_max=9)
            sol = solve_selection(problem)
            oracle = selection_oracle(problem)
            if oracle is None:
                assert sol.status in (INFEASIBLE, GAP_LIMIT)
                continue
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert sol.objective == pytest.approx(oracle, rel=1e-7,
                                                  abs=1e-9), f"trial {trial}"
            solved += 1
        assert solved >= 10  # the generator must mostly produce feasible runs

    def test_infeasible_base_detected(self):
        # x <= 0 and x >= 1 always hold (the scenario repeats them), and
        # the one scenario adds x <= 5.
        cost = QuadraticCost(h=np.eye(1), g=np.zeros(1))
        base = LinearSystem.make(a_ineq=[[1.0], [-1.0], [1.0]],
                                 b_ineq=[0.0, -1.0, 5.0])
        problem = SelectionProblem(cost=cost, base=base,
                                   b=[[0.0, -1.0, 5.0]], k=1)
        sol = solve_selection(problem)
        assert sol.status == INFEASIBLE

    def test_relaxation_budget_restores_feasibility(self):
        # Base forces x <= 0; one block demands x >= 1, the other
        # x >= -0.5.  k = S means infeasible, k = S - 1 may drop the bad
        # block.  The base bound on -x is the looser block's.
        cost = QuadraticCost(h=np.eye(1), g=np.zeros(1))
        base = LinearSystem.make(a_ineq=[[1.0], [-1.0]], b_ineq=[0.0, 0.5])
        blocks = dict(b=[[0.0, -1.0], [0.0, 0.5]])
        assert solve_selection(SelectionProblem(
            cost=cost, base=base, k=2, **blocks)).status == INFEASIBLE
        sol = solve_selection(SelectionProblem(
            cost=cost, base=base, k=1, **blocks))
        assert sol.status == OPTIMAL
        np.testing.assert_array_equal(sol.z_star, [1, 0])

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(23)
        problem = random_selection_problem(rng)
        a = solve_selection(problem)
        b = solve_selection(problem)
        assert a.status == b.status == OPTIMAL
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.z_star, b.z_star)
        assert a.objective == b.objective
        assert a.enforced_set == b.enforced_set

    @pytest.mark.parametrize("options", [
        dict(node_limit=-1), dict(rel_gap=-1e-3), dict(rel_gap=np.nan),
        dict(rel_gap=np.inf)])
    def test_options_reject_negative_or_non_finite_limits(self, options):
        with pytest.raises(ValueError, match=next(iter(options))):
            SolverOptions(**options)
        assert SolverOptions(node_limit=0).node_limit == 0

    def test_node_limit_reports_gap(self):
        rng = np.random.default_rng(29)
        problem = random_selection_problem(rng, s_max=12)
        sol = solve_selection(problem, SolverOptions(node_limit=1))
        assert sol.status in (OPTIMAL, GAP_LIMIT)
        if sol.status == GAP_LIMIT:
            assert sol.gap >= 0.0

    @staticmethod
    def feasible_branching_problem():
        rng = np.random.default_rng(11)
        while True:
            problem = random_selection_problem(rng, s_max=9)
            oracle = selection_oracle(problem)
            if problem.k < problem.n_scenarios and oracle is not None:
                return problem, oracle

    def test_failed_warm_started_node_is_solved_again_from_phase_1(
            self, monkeypatch):
        from ccopf import scenario_mip

        problem, oracle = self.feasible_branching_problem()
        real_qp_solve = scenario_mip.qp_solve
        real_path = scenario_mip._homotopy
        calls, paths = [], []

        def counted(cost, system, *, warm_start=None):
            calls.append(warm_start is not None)
            return real_qp_solve(cost, system, warm_start=warm_start)

        def gives_up_first(*args):
            # The all-enforced QP's free start takes its path, the root
            # node's warm path gives up, and later nodes take the path.
            paths.append(real_path(*args) if len(paths) != 1 else (None, 2))
            return paths[-1]

        # Without the greedy incumbent the first warm-started QP is the
        # root node's.
        monkeypatch.setattr(scenario_mip, "qp_solve", counted)
        monkeypatch.setattr(scenario_mip, "_homotopy", gives_up_first)
        monkeypatch.setattr(scenario_mip, "greedy_incumbent",
                            lambda problem: None)
        sol = solve_selection(problem)
        assert calls[:2] == [False, True]
        assert paths[0][0] is not None and paths[1] == (None, 2)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(oracle, rel=1e-7, abs=1e-9)
        assert sol.message == ""
        # the all-enforced anchor, then one QP per node
        assert sol.qp_count == len(calls) == sol.nodes + 1

    def test_numerical_failure_at_a_node_ends_the_search(self, monkeypatch):
        from ccopf import scenario_mip

        problem, _ = self.feasible_branching_problem()
        real_qp_solve = scenario_mip.qp_solve
        calls = []

        def flaky(cost, system, *, warm_start=None):
            calls.append(warm_start is not None)
            if len(calls) == 2:
                return QpSubproblemResult(status=NUMERICAL_FAILURE,
                                          message="injected")
            return real_qp_solve(cost, system, warm_start=warm_start)

        monkeypatch.setattr(scenario_mip, "qp_solve", flaky)
        monkeypatch.setattr(scenario_mip, "greedy_incumbent",
                            lambda problem: None)
        sol = solve_selection(problem)
        # all-enforced anchor, then the failed warm-started root: no retry
        assert calls == [False, True]
        assert sol.qp_count == 2
        assert sol.status == NUMERICAL_FAILURE
        assert sol.message == "node 1 (|E| = 0, |R| = 0): injected"

    def test_numerical_failure_at_k_equal_s_names_the_qp(self, monkeypatch):
        from ccopf import scenario_mip

        monkeypatch.setattr(
            scenario_mip, "qp_solve",
            lambda cost, system, *, warm_start=None: QpSubproblemResult(
                status=NUMERICAL_FAILURE, message="injected"))
        sol = solve_selection(make_threshold_problem([1.0, 5.0], k=2))
        assert sol.status == NUMERICAL_FAILURE
        assert sol.message == "all-enforced QP (|E| = 2, |R| = 0): injected"

    def test_iterations_sum_the_counted_qps(self, monkeypatch):
        from ccopf import scenario_mip

        rng = np.random.default_rng(17)
        problem = random_selection_problem(rng, s_max=9)
        real_qp_solve = scenario_mip.qp_solve
        taken = []

        def counted(cost, system, *, warm_start=None):
            result = real_qp_solve(cost, system, warm_start=warm_start)
            taken.append(result.iterations)
            return result

        # Without the greedy incumbent every QP is one qp_count counts.
        monkeypatch.setattr(scenario_mip, "qp_solve", counted)
        monkeypatch.setattr(scenario_mip, "greedy_incumbent",
                            lambda problem: None)
        sol = solve_selection(problem)
        assert sol.qp_count == len(taken) > 1
        assert sol.iterations == sum(taken) > 0

    def test_greedy_incumbent_feasible(self):
        problem = make_threshold_problem([1.0, 5.0, 9.0, 2.0], k=3)
        warm = greedy_incumbent(problem)
        assert warm is not None
        x, z, value = warm
        assert int(np.sum(z)) == 1
        kept = np.flatnonzero(z == 0)
        for j in kept:
            assert np.max(problem.a @ x - problem.b[j]) <= 1e-7
        # Dual weight concentrates on the binding x >= 9 block, so greedy
        # relaxes it and lands on the true optimum directly.
        assert value == pytest.approx(5.0, abs=1e-8)
        failed = QpSubproblemResult(status=NUMERICAL_FAILURE)
        assert greedy_incumbent(replace(
            problem, _shared=_Shared(all_enforced=failed))) is None


class TestBuildFromChanceRows:
    def test_blocks_shift_by_scenario(self):
        rows = CcSystem(
            row_names=("r0", "r2"),
            base_lin=np.array([[1.0, 0.0], [1.0, 1.0]]),
            base_const=np.array([0.1, -0.2]),
            sens=np.array([[2.0], [1.0]]),
            rhs=np.array([1.0, 3.0]))

        xi = np.array([[0.5], [-0.5]])
        cost = QuadraticCost(h=np.eye(2), g=np.zeros(2))
        problem = build_selection_from_ccopf(
            rows, xi, cost, k=1,
            equalities=(np.array([[1.0, 1.0]]), np.array([1.0])))
        assert problem.base.a_ineq.shape == (2, 2)
        assert problem.base.a_eq.shape == (1, 2)
        assert problem.b.shape == (2, 2)
        np.testing.assert_allclose(problem.b[0], [1.0 - 0.1 - 2.0 * 0.5,
                                                  3.0 + 0.2 - 1.0 * 0.5])
        np.testing.assert_allclose(problem.b[1], [1.0 - 0.1 + 1.0, 3.2 + 0.5])
        # every block shares the deterministic rows as its LHS
        np.testing.assert_array_equal(problem.a, problem.base.a_ineq)
        sol = solve_selection(problem)
        assert sol.status == OPTIMAL


# ---------------------------------------------------------------------------
# Warm-started node QPs move the anchor's working set along the RHS.  The
# cold solve, phase 1's projection and then the run from its point (what
# qp_solve falls back to when the path gives up), is the oracle: with the
# warm and free paths switched off, every QP takes it.

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@functools.lru_cache(maxsize=None)
def config_inputs(name):
    """Case, fleet, training set and DC rows of a bundled config."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # case14's dropped branch data
        run = _resolve_run(CONFIG_DIR / f"{name}.ini", sets=("train",))
    net = run.model
    return run.cfg, net.case, net.fleet, run.sets["train"], net.cc


def config_problem(name, k):
    cfg, case, fleet, train, cc = config_inputs(name)
    if k is None:
        k = _choose_params(cfg, train.s).k
    return build_selection_from_ccopf(
        cc, train.xi, make_cost(case), k,
        equalities=balance_equality(case, fleet))


class TestSearchPins:
    """The search on the bundled configs, pinned per k: any change to the
    node bookkeeping, the bound or the branching rule shows here.  The
    deep sweep300 trees are pinned by tools/search_trace.py against
    tests/data/sweep300_search.csv; test_search_trace_tool runs that tool
    on sweep14."""

    @pytest.mark.parametrize("name, k, nodes, qp_count, relaxed", [
        ("tutorial", None, 1, 2, [45, 53]),
        ("sweep14", 190, 1, 2, [8, 20, 41, 77, 86, 95, 127, 169, 185, 188]),
        ("sweep14", 198, 1, 2, [95, 185]),
        ("sweep14", 200, 0, 1, []),
        ("sweep300", 297, 21, 22, [93, 105, 270]),
        ("sweep300", 294, 63, 64, [74, 93, 105, 248, 249, 270]),
        ("sweep300", 291, 57, 58,
         [55, 74, 93, 105, 119, 146, 248, 249, 270]),
    ])
    def test_search(self, name, k, nodes, qp_count, relaxed):
        sol = solve_selection(config_problem(name, k))
        assert sol.status == OPTIMAL
        assert (sol.nodes, sol.qp_count) == (nodes, qp_count)
        assert np.flatnonzero(sol.z_star).tolist() == relaxed

    def test_search_trace_tool(self, tmp_path):
        # Every k of sweep14 through tools/search_trace.py, which writes
        # nothing in its working directory.
        root = CONFIG_DIR.parent
        result = subprocess.run(
            [sys.executable, root / "tools" / "search_trace.py",
             CONFIG_DIR / "sweep14.ini"],
            cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        expected = root / "tests" / "data" / "sweep14_search.csv"
        assert result.stdout == expected.read_text()
        assert not list(tmp_path.iterdir())


class TestRelativeGap:
    def test_rel_gap_reports_the_gap_it_proved(self):
        # On this instance rel_gap = 1e-4 stops after 5 of the exact
        # search's 19 nodes, 3.2e-5 above the optimum.
        cfg, case, fleet, _, cc = config_inputs("sweep300")
        train = sample(_build_spec(cfg, fleet), 60, 21)
        problem = build_selection_from_ccopf(
            cc, train.xi, make_cost(case), 56,
            equalities=balance_equality(case, fleet))
        exact = solve_selection(problem)
        rel_gap = 1e-4
        early = solve_selection(problem, SolverOptions(rel_gap=rel_gap))
        assert exact.status == early.status == OPTIMAL
        assert exact.gap == 0.0
        assert 0.0 < early.gap <= rel_gap
        assert early.nodes <= exact.nodes
        assert exact.objective <= early.objective <= exact.objective * (
            1.0 + rel_gap)
        # The proved bound holds the optimum.
        assert early.objective * (1.0 - early.gap) <= exact.objective


def unshared(problem):
    """The same problem with a holder of its own: nothing solved on its
    data before, such as the greedy path, is replayed."""
    return SelectionProblem(problem.cost, problem.base, problem.b, problem.k)


def cold_path_solve(problem, monkeypatch):
    """solve_selection with every warm or free path giving up at once, so
    that each QP runs from phase 1's point."""
    from ccopf import scenario_mip

    with monkeypatch.context() as patch:
        patch.setattr(scenario_mip, "_homotopy",
                      on_the_warm_or_free_path((None, 0)))
        return solve_selection(unshared(problem))


class TestParametricWarmStart:
    @pytest.mark.parametrize("name, k", [
        ("tutorial", None),
        *(("sweep14", k) for k in range(180, 201, 2)),
        ("sweep300", 297),
        ("sweep300", 291),
    ])
    def test_selection_matches_the_primal_path(self, name, k, monkeypatch):
        problem = config_problem(name, k)
        sol = solve_selection(problem)
        oracle = cold_path_solve(problem, monkeypatch)
        assert sol.status == oracle.status == OPTIMAL
        assert sol.nodes == oracle.nodes
        assert sol.qp_count == oracle.qp_count
        assert sol.enforced_set == oracle.enforced_set
        assert sol.objective == pytest.approx(oracle.objective, rel=1e-12)
        np.testing.assert_allclose(sol.x_star, oracle.x_star, atol=1e-9)

    @pytest.mark.parametrize("name, k", [
        *(("sweep14", k) for k in range(180, 201, 2)),
        ("sweep300", 297),
    ])
    def test_the_path_never_gives_up_on_the_bundled_configs(
            self, name, k, monkeypatch):
        # Every warm start on these configs, node or greedy trial, ends on
        # the path; the cold solve behind it is only a recovery.
        from ccopf import scenario_mip

        real_path = scenario_mip._homotopy
        ended = []

        def recorded(*args):
            found, spent = real_path(*args)
            ended.append(found is not None)
            return found, spent

        monkeypatch.setattr(scenario_mip, "_homotopy", recorded)
        sol = solve_selection(unshared(config_problem(name, k)))
        assert sol.status == OPTIMAL
        assert len(ended) >= sol.qp_count - 1  # every QP but the anchor
        assert all(ended)

    def test_warm_nodes_take_few_iterations_on_sweep300(self, monkeypatch):
        # Every QP after the all-enforced anchor starts from the anchor's
        # optimum.  A cold solve takes about 48 iterations per node; the
        # path changes about 2 working rows.
        problem = config_problem("sweep300", 297)
        anchor = qp_solve(problem.cost, problem.node_system(
            np.ones(problem.n_scenarios, dtype=bool)))

        def warm_mean(sol):
            return (sol.iterations - anchor.iterations) / (sol.qp_count - 1)

        sol = solve_selection(problem)
        assert sol.qp_count > 10
        assert warm_mean(sol) <= 5.0
        assert warm_mean(cold_path_solve(problem, monkeypatch)) > 20.0


class TestFreeStart:
    """A cold QP whose cost has a Cholesky factor on the equalities' null
    space starts at that cost's minimizer and follows the RHS path; phase
    1 runs only when the path gives up.  Phase 1 is counted by its runs of
    scenario_mip._phase1_point."""

    def test_interior_minimizer_needs_no_phase_1(self, monkeypatch):
        # The minimizer lies inside the box: the path meets no row, and
        # its one iteration certifies it with an empty working set.
        phase1 = counting_phase1(monkeypatch)
        target = np.array([2.2, -1.15, 0.55])
        cost = QuadraticCost(h=np.eye(3), g=-target)
        system = LinearSystem.make(
            a_ineq=np.vstack([np.eye(3), -np.eye(3)]),
            b_ineq=[2.5, -0.5, 1.0, -1.5, 1.5, 0.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL
        assert phase1 == []
        assert res.iterations == 1 and res.working == ()
        assert np.all(res.duals_ineq == 0.0)
        np.testing.assert_allclose(res.x, target, atol=1e-12)

    def test_minimizer_on_the_equalities_starts_the_path(self, monkeypatch):
        # min |x - (5, 5, 0)|^2 / 2 on x1 + x2 + x3 = 3 under x1, x2 <= 1:
        # the free start is (8, 8, -7) / 3, the equality holds on the whole
        # path, and both bounds end in the working set.
        phase1 = counting_phase1(monkeypatch)
        cost = QuadraticCost(h=np.eye(3), g=np.array([-5.0, -5.0, 0.0]))
        system = LinearSystem.make(
            a_ineq=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], b_ineq=[1.0, 1.0],
            a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL and phase1 == []
        assert res.working == (0, 1)
        np.testing.assert_allclose(res.x, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.duals_eq, [-1.0], atol=1e-12)
        np.testing.assert_allclose(res.duals_ineq, [5.0, 5.0], atol=1e-12)

    @pytest.mark.parametrize("h, a_eq", [
        (np.zeros((2, 2)), None),  # a linear cost
        (np.diag([2.0, 0.0]), None),  # PSD, flat along x2
        (np.diag([2.0, 0.0]), [[1.0, 0.0]]),  # flat on x1 = 1's null space
    ])
    def test_cost_flat_on_the_equalities_takes_phase_1(self, h, a_eq,
                                                       monkeypatch):
        phase1 = counting_phase1(monkeypatch)
        cost = QuadraticCost(h=h, g=np.array([-2.0, 1.0]))
        system = LinearSystem.make(
            a_ineq=[[0.0, -1.0], [1.0, 0.0]], b_ineq=[0.0, 3.0],
            a_eq=a_eq, b_eq=None if a_eq is None else [1.0], n=2)
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL, res.message
        assert phase1 == [1]
        assert res.x[1] == pytest.approx(0.0, abs=1e-9)

    def test_cost_curved_on_the_equalities_needs_no_phase_1(
            self, monkeypatch):
        # The same PSD cost, flat along x2 only, with x2 = 1 pinned: the
        # reduced Hessian is [2], so the free start exists.
        phase1 = counting_phase1(monkeypatch)
        cost = QuadraticCost(h=np.diag([2.0, 0.0]), g=np.array([-2.0, 1.0]))
        system = LinearSystem.make(
            a_ineq=[[1.0, 0.0]], b_ineq=[0.5], a_eq=[[0.0, 1.0]], b_eq=[1.0])
        res = qp_solve(cost, system)
        assert res.status == OPTIMAL and phase1 == []
        np.testing.assert_allclose(res.x, [0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("name, k", [
        ("tutorial", None), ("sweep14", 200), ("sweep300", 300)])
    def test_all_enforced_qp_matches_the_phase_1_run(self, name, k,
                                                     monkeypatch):
        # The cold QP of every bundled DC config: no phase 1, the same
        # working set and the same optimum as the run from phase 1's point.
        problem = config_problem(name, k)
        system = problem.node_system(np.ones(problem.n_scenarios, dtype=bool))
        forced = phase1_solve(problem.cost, system, monkeypatch)
        phase1 = counting_phase1(monkeypatch)
        free = qp_solve(problem.cost, system)
        assert phase1 == []
        assert free.status == forced.status == OPTIMAL
        assert free.working == forced.working
        assert free.value == pytest.approx(forced.value, rel=1e-12)
        np.testing.assert_allclose(free.x, forced.x, atol=1e-9)
        assert free.iterations <= forced.iterations
