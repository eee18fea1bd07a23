"""The k-independent work of a selection, shared between the problems
that build_selection_from_ccopf makes from one row system.

The all-enforced QP (also the robust baseline on the training set) and
the greedy incumbent's relaxation path are solved once per cc object and
scenario set.  The oracle for every shared solve is the same solve on
freshly built inputs, which share nothing: every field must match bit
for bit.
"""

import dataclasses
import gc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccopf import scenario_mip
from ccopf.cli import _resolve_run
from ccopf.dc_model import (
    CcSystem,
    assemble_cc_system,
    balance_equality,
    make_cost,
)
from ccopf.evaluation import ro_baseline, solve_dc_selection
from ccopf.scenario_mip import (
    NUMERICAL_FAILURE,
    OPTIMAL,
    QpSubproblemResult,
    QuadraticCost,
    SelectionProblem,
    SelectionSolution,
    build_selection_from_ccopf,
    solve_selection,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def config_run(name, sets=("train",)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # case14's dropped branch data
        return _resolve_run(CONFIG_DIR / f"{name}.ini", sets=sets)


def fresh_cc(net):
    """The config's row system, built anew: it shares nothing."""
    return assemble_cc_system(net.case, net.fleet,
                              include_slack_rows=net.include_slack_rows)


def same(got, want):
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and isinstance(want, np.ndarray)
                and got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, float) and np.isnan(want):
        return isinstance(got, float) and np.isnan(got)
    return got == want


def assert_same_solution(got, want):
    for f in dataclasses.fields(SelectionSolution):
        assert same(getattr(got, f.name), getattr(want, f.name)), f.name


def sweep(net, train, cc, k_values, *, robust_first):
    """The robust solve on the training set and one selection per k, all
    through cc, in the given order."""
    def robust():
        return ("ro", ro_baseline(net.case, net.fleet, train, cc=cc))

    solves = [robust()] if robust_first else []
    for k in k_values:
        solves.append((k, solve_dc_selection(net.case, net.fleet, train, k,
                                             cc=cc)[0]))
    if not robust_first:
        solves.append(robust())
    return dict(solves)


class TestSharingNeverChangesAnAnswer:
    @pytest.mark.parametrize("name, k_values", [
        ("sweep14", list(range(180, 201, 2))),
        ("sweep300", [297, 300]),
    ])
    def test_any_order_matches_fresh_inputs(self, name, k_values):
        run = config_run(name)
        net, train = run.model, run.sets["train"]
        fresh = {"ro": ro_baseline(net.case, net.fleet, train,
                                   cc=fresh_cc(net))}
        for k in k_values:
            fresh[k] = solve_dc_selection(net.case, net.fleet, train, k,
                                          cc=fresh_cc(net))[0]
        assert all(sol.status == OPTIMAL for sol in fresh.values())
        ascending = sweep(net, train, fresh_cc(net), k_values,
                          robust_first=True)
        descending = sweep(net, train, fresh_cc(net), k_values[::-1],
                           robust_first=False)
        for key, want in fresh.items():
            assert_same_solution(ascending[key], want)
            assert_same_solution(descending[key], want)


def random_cc(rng, n, m, d):
    """Rows [box; random] on n generators with d error sensitivities,
    bounded so that a nominal point keeps a margin."""
    lin = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(m, n))])
    x0 = rng.uniform(0.2, 0.8, size=n)
    const = rng.normal(scale=0.1, size=lin.shape[0])
    rhs = lin @ x0 + const + rng.uniform(0.05, 0.5, size=lin.shape[0])
    return CcSystem(row_names=tuple(f"r{i}" for i in range(lin.shape[0])),
                    base_lin=lin, base_const=const,
                    sens=rng.normal(size=(lin.shape[0], d)), rhs=rhs)


@given(seed=st.integers(0, 2**32 - 1), s=st.integers(2, 7),
       order=st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6))
def test_a_random_k_sequence_on_one_cc_matches_new_problems(seed, s, order):
    # Two scenario sets on one cc: each gets a holder of its own.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    cc = random_cc(rng, n, int(rng.integers(0, 3)), d)
    xi_sets = rng.normal(scale=0.2, size=(2, s, d))
    q = rng.normal(size=(n, n))
    cost = QuadraticCost(h=q.T @ q + np.eye(n), g=rng.normal(size=n))
    equalities = (np.ones((1, n)), np.array([0.5 * n]))
    for which, u in order:
        xi, k = xi_sets[which], 1 + min(int(u * s), s - 1)
        shared = solve_selection(build_selection_from_ccopf(
            cc, xi, cost, k, equalities=equalities))
        new = solve_selection(build_selection_from_ccopf(
            dataclasses.replace(cc), xi, cost, k, equalities=equalities))
        assert_same_solution(shared, new)


class TestSharedWorkCounts:
    """Counters on phase 1 and qp_solve pin what is shared, and for how
    long.  A cold QP is a qp_solve call with no warm start: here always
    an all-enforced QP, which starts free and needs no phase 1."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"phase1": 0, "qp": 0, "cold_qp": 0, "greedy_qp": 0}
        inside_greedy = []
        real_phase1 = scenario_mip._phase1_point
        real_qp_solve = scenario_mip.qp_solve
        real_greedy = scenario_mip.greedy_incumbent

        def phase1_point(*args):
            counts["phase1"] += 1
            return real_phase1(*args)

        def qp_solve(*args, **kwargs):
            counts["qp"] += 1
            counts["cold_qp"] += kwargs.get("warm_start") is None
            counts["greedy_qp"] += bool(inside_greedy)
            return real_qp_solve(*args, **kwargs)

        def greedy_incumbent(*args):
            inside_greedy.append(True)
            try:
                return real_greedy(*args)
            finally:
                inside_greedy.pop()

        monkeypatch.setattr(scenario_mip, "_phase1_point", phase1_point)
        monkeypatch.setattr(scenario_mip, "qp_solve", qp_solve)
        monkeypatch.setattr(scenario_mip, "greedy_incumbent",
                            greedy_incumbent)
        return counts

    @pytest.fixture(scope="class")
    def sweep14(self):
        run = config_run("sweep14", sets=("train", "ro"))
        return run.model, run.sets["train"], run.sets["ro"]

    def test_one_cold_qp_and_one_greedy_path_per_scenario_set(
            self, sweep14, counted):
        net, train, ro_set = sweep14
        cc = fresh_cc(net)
        solves = sweep(net, train, cc, range(180, 201, 2), robust_first=True)
        # The 11 selections and the robust solve on the training set: one
        # all-enforced QP, and the greedy path of the smallest k, S - k =
        # 20 trials.  Every other QP is a node QP.
        nodes = sum(sol.nodes for sol in solves.values())
        counts = dict(counted)
        assert counts == {"phase1": 0, "qp": 1 + 20 + nodes, "cold_qp": 1,
                          "greedy_qp": 20}
        assert [solves[k].qp_count for k in range(180, 201, 2)] == [
            1 + solves[k].nodes for k in range(180, 201, 2)]
        # Solving it all again through cc solves nothing cold and walks
        # no greedy step.
        again = sweep(net, train, cc, range(180, 201, 2), robust_first=False)
        assert counted == {"phase1": 0, "qp": counts["qp"] + nodes,
                           "cold_qp": 1, "greedy_qp": 20}
        for key, sol in again.items():
            assert_same_solution(sol, solves[key])
        # The separate robust set on the same cc has a holder of its own.
        ro_baseline(net.case, net.fleet, ro_set, cc=cc)
        assert counted["cold_qp"] == 2
        ro_baseline(net.case, net.fleet, ro_set, cc=cc)
        assert counted["cold_qp"] == 2 and counted["phase1"] == 0
        assert len(scenario_mip._SHARED[cc]) == 2

    def test_a_stopped_path_stays_stopped(self, sweep14, counted,
                                          monkeypatch):
        # The third greedy trial fails, so the path stops after two steps:
        # a longer S - k does not try it again.
        net, train, _ = sweep14
        counting = scenario_mip.qp_solve

        def third_trial_fails(*args, **kwargs):
            before = counted["greedy_qp"]
            result = counting(*args, **kwargs)
            if counted["greedy_qp"] == before + 1 == 3:
                return QpSubproblemResult(status=NUMERICAL_FAILURE)
            return result

        monkeypatch.setattr(scenario_mip, "qp_solve", third_trial_fails)
        cc = fresh_cc(net)
        for k in (195, 180, 199):
            sol, _ = solve_dc_selection(net.case, net.fleet, train, k, cc=cc)
            assert sol.status == OPTIMAL
            assert counted["greedy_qp"] == 3

    def test_a_directly_constructed_problem_shares_nothing(
            self, sweep14, counted):
        net, train, _ = sweep14
        built = build_selection_from_ccopf(
            fresh_cc(net), train.xi, make_cost(net.case), 190,
            equalities=balance_equality(net.case, net.fleet))
        first = solve_selection(built)
        assert counted["cold_qp"] == 1 and counted["greedy_qp"] == 10
        direct = SelectionProblem(built.cost, built.base, built.b, built.k)
        assert_same_solution(solve_selection(direct), first)
        assert counted["cold_qp"] == 2 and counted["greedy_qp"] == 20
        assert counted["phase1"] == 0

    def test_the_holder_dies_with_its_cc(self, sweep14):
        net, train, _ = sweep14
        cc = fresh_cc(net)
        gc.collect()  # only cc's own holder may leave below
        before = len(scenario_mip._SHARED)
        sol = ro_baseline(net.case, net.fleet, train, cc=cc)
        assert len(scenario_mip._SHARED) == before + 1
        alive = weakref.ref(cc)
        del cc
        gc.collect()
        assert alive() is None
        assert len(scenario_mip._SHARED) == before
        assert sol.status == OPTIMAL  # the solution outlives the holder

    def test_shared_arrays_are_read_only(self, sweep14):
        net, train, _ = sweep14
        cc = fresh_cc(net)
        ro = ro_baseline(net.case, net.fleet, train, cc=cc)
        top, _ = solve_dc_selection(net.case, net.fleet, train, train.s,
                                    cc=cc)
        assert top.x_star is ro.x_star
        for array in (ro.x_star, ro.duals_ineq, ro.duals_eq):
            with pytest.raises(ValueError):
                array[0] = 0.0
