"""Acceptance gate: eight end-to-end checks of the toolkit, one per test,
each printing a single PASS/FAIL line (run with -s to see them live).

1. Anchor values of the violation-probability arithmetic.
2. Selection solver exactness against brute-force subset enumeration.
3. Cost ordering deterministic <= k-of-S <= robust on the 14-bus sweep.
4. Out-of-sample violation within the certified level on fresh samples.
5. Walkthrough behavior: free machine carries the load, the relaxed
   scenarios are the extreme ones, the deterministic dispatch violates
   about half the time.
6. Nonlinear machinery: Newton residuals, response sensitivities,
   zero-error identity, alternating-solve convergence.
7. Scale: the 300-bus sweep completes within the per-solve time budget.
8. Determinism: repeated runs yield byte-identical CSV artifacts.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ccopf.ambiguity import AmbiguityParams, min_k_for_target, optimal_epsilon
from ccopf.cli import _network_model, sweep_k
from ccopf.dc_model import assemble_cc_system, solve_deterministic_dc
from ccopf.evaluation import (
    DcEvaluator,
    solve_dc_selection,
    violation_frequency,
    write_sweep_csv,
)
from ccopf.scenario_mip import (
    INFEASIBLE,
    OPTIMAL,
    LinearSystem,
    QuadraticCost,
    SelectionProblem,
    qp_solve,
    solve_selection,
)
from ccopf.scenarios import GaussianSpec, sample
from conftest import respond, subprocess_env

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ccopf.cli", *[str(a) for a in args]],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=subprocess_env())


def read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# shared experiment: 14-bus sweep, 200 training / 10000 test scenarios


SWEEP_K = list(range(180, 201, 2))
TRAIN_SEED, TEST_SEED = 11, 12


@pytest.fixture(scope="module")
def sweep14(case14, fleet14):
    spec = GaussianSpec(forecasts=fleet14.forecasts, zeta=0.05, rho=0.2)
    train = sample(spec, 200, TRAIN_SEED)
    test = sample(spec, 10000, TEST_SEED)
    rows, digest = sweep_k(_network_model("dc", case14, fleet14), train,
                           test, SWEEP_K, record_time=False)
    det = solve_deterministic_dc(case14, fleet14)
    assert det.status == OPTIMAL
    return {"rows": rows, "digest": digest, "det_cost": det.cost,
            "train": train, "test": test}


def test_criterion_1_ambiguity_anchor_values():
    start = time.perf_counter()
    eps97 = optimal_epsilon(97, 100)[0]
    eps98 = optimal_epsilon(98, 100)[0]
    k_star = min_k_for_target(0.10, 100)
    elapsed = time.perf_counter() - start
    ok = (abs(eps97 - 0.109) <= 1e-3 and abs(eps98 - 0.0924) <= 5e-4
          and k_star == 98 and elapsed < 1.0)
    verdict(1, ok,
            f"eps*(97,100)={eps97:.6f}, eps*(98,100)={eps98:.6f}, "
            f"min k for 0.10 = {k_star}, {elapsed:.3f} s")


def _random_selection_problem(rng):
    n = int(rng.integers(2, 5))
    s = int(rng.integers(5, 13))
    k = int(rng.integers(max(1, s - 4), s + 1))
    q = rng.normal(size=(n, n))
    cost = QuadraticCost(h=q.T @ q + np.eye(n), g=rng.normal(size=n))
    # The box |x_i| <= 5 is a base row set that every scenario repeats,
    # and the random rows get the base bound 5 ||a_i||_1, which the box
    # implies.
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


def _enumeration_value(problem):
    best = None
    for subset in itertools.combinations(range(problem.n_scenarios),
                                         problem.k):
        parts_a = [problem.base.a_ineq] + [problem.a] * len(subset)
        parts_b = [problem.base.b_ineq] + [problem.b[j] for j in subset]
        system = LinearSystem(np.vstack(parts_a), np.concatenate(parts_b),
                              problem.base.a_eq, problem.base.b_eq)
        res = qp_solve(problem.cost, system)
        if res.status == OPTIMAL and (best is None or res.value < best):
            best = res.value
    return best


def test_criterion_2_selection_matches_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    solved = mismatches = 0
    for trial in range(50):
        problem = _random_selection_problem(rng)
        sol = solve_selection(problem)
        oracle = _enumeration_value(problem)
        if oracle is None:
            if sol.status != INFEASIBLE:
                mismatches += 1
            continue
        solved += 1
        if sol.status != OPTIMAL or not np.isclose(
                sol.objective, oracle, rtol=1e-7, atol=1e-9):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and solved >= 40 and elapsed < 120.0
    verdict(2, ok,
            f"50 random instances, {solved} feasible, "
            f"{mismatches} mismatches vs enumeration, {elapsed:.1f} s")


def test_criterion_3_cost_ordering(sweep14):
    start = time.perf_counter()
    rows = sweep14["rows"]
    ro_cost = next(r["cost"] for r in rows if r["k"] == 200)
    statuses_ok = all(r["status"] == OPTIMAL for r in rows)
    nested = all(sweep14["det_cost"] <= r["cost"] + 1e-9
                 and r["cost"] <= ro_cost + 1e-9 for r in rows)
    strict = any(r["cost"] < ro_cost - 1e-6 for r in rows if r["k"] < 200)
    elapsed = time.perf_counter() - start
    ok = statuses_ok and nested and strict and elapsed < 600.0
    verdict(3, ok,
            f"det {sweep14['det_cost']:.2f} <= k-of-S <= robust "
            f"{ro_cost:.2f} across k in 180..200, strict below the top")


def test_criterion_4_out_of_sample_violation(sweep14):
    worst_slack = np.inf
    for row in sweep14["rows"]:
        eps = row["epsilon_star"]
        limit = eps + 3.0 * np.sqrt(eps * (1.0 - eps) / 10000.0)
        worst_slack = min(worst_slack, limit - row["joint_violation"])
    ok = worst_slack >= 0.0
    verdict(4, ok,
            "violation rate within eps* + 3 binomial sigmas on 10000 "
            f"fresh samples for every k (worst slack {worst_slack:+.4f})")


def test_criterion_5_walkthrough_behavior(case14_tutorial, fleet14_tutorial):
    spec = GaussianSpec(forecasts=fleet14_tutorial.forecasts,
                        zeta=0.05, rho=0.2)
    train = sample(spec, 100, 1)
    test = sample(spec, 10000, 2)

    det = solve_deterministic_dc(case14_tutorial, fleet14_tutorial)
    net_load = float(case14_tutorial.p_load.sum()
                     - fleet14_tutorial.forecasts.sum())
    on_free_machine = (abs(det.dispatch[0] - net_load) <= 1e-6
                       and np.all(np.abs(det.dispatch[1:]) <= 1e-6))

    sol, cc = solve_dc_selection(case14_tutorial, fleet14_tutorial,
                                 train, 98)
    relaxed = np.flatnonzero(sol.z_star)
    totals = train.xi.sum(axis=1)
    threshold = np.quantile(totals, 0.9)
    extremes_relaxed = (sol.status == OPTIMAL and relaxed.size == 2
                        and np.all(totals[relaxed] > threshold))

    det_report = violation_frequency(det.dispatch, test, DcEvaluator(cc))
    det_rate = det_report.joint_violation_rate
    half_the_time = abs(det_rate - 0.5) <= 0.05

    ok = on_free_machine and extremes_relaxed and half_the_time
    verdict(5, ok,
            f"free machine carries {net_load * 100:.0f} MW, relaxed "
            f"scenarios {relaxed.tolist()} sit above the 90th percentile, "
            f"deterministic violation {det_rate:.3f}")


def test_criterion_6_nonlinear_machinery(case14, fleet14, case14_ac,
                                         fleet14_ac):
    from ccopf.ac_model import (
        ac_row_set,
        fixed_point_solve,
        pf_solve,
        quantity_values,
        response_jacobian,
        solve_operating_point,
    )
    from ccopf.case_io import build_fleet

    # Newton residual at the file's scheduled outputs
    p_set = -case14.p_load.copy()
    np.add.at(p_set, case14.gen_bus, np.array([2.324, 0.40, 0.0, 0.0, 0.0]))
    state = pf_solve(case14, p_set, -case14.q_load.copy())
    newton_ok = state.solved and state.mismatch <= 1e-10

    # response sensitivities against central finite differences
    fleet = build_fleet(case14, [case14.bus_index(2), case14.bus_index(3)],
                        np.array([0.15, 0.15]), 0.1)
    dispatch = np.full(5, 0.45)
    base = solve_operating_point(case14, fleet, dispatch)
    rows = ac_row_set(case14, fleet)
    jac = response_jacobian(case14, fleet, base, rows=rows)
    h = 1e-5
    fd = np.empty_like(jac.j_matrix)
    for j in range(fleet.n_vre):
        e = np.zeros(fleet.n_vre)
        e[j] = h
        up, dn = (respond(case14, fleet, base, sign * e)
                  for sign in (1.0, -1.0))
        fd[:, j] = (quantity_values(case14, fleet, rows, up, dispatch, e)
                    - quantity_values(case14, fleet, rows, dn, dispatch,
                                      -e)) / (2 * h)
    big = np.abs(jac.j_matrix) > 1e-8
    fd_err = (np.abs(fd - jac.j_matrix)[big]
              / np.abs(jac.j_matrix)[big]).max()
    fd_ok = fd_err <= 1e-4

    # zero forecast error must reproduce the operating point exactly
    echo = respond(case14, fleet, base, np.zeros(2))
    identity_err = max(
        np.abs(echo.p - base.p).max(), np.abs(echo.q - base.q).max(),
        np.abs(echo.v - base.v).max(), np.abs(echo.theta - base.theta).max())
    identity_ok = echo.solved and identity_err <= 1e-10

    # alternating dispatch/selection loop settles quickly
    spec = GaussianSpec(forecasts=fleet14_ac.forecasts, zeta=0.05, rho=0.2)
    train = sample(spec, 200, 11)
    result = fixed_point_solve(case14_ac, fleet14_ac, train,
                               AmbiguityParams.from_k(190, 200))
    fixed_ok = (result.outer_iterations <= 5
                and result.d_history[-1] <= 1e-4)

    ok = newton_ok and fd_ok and identity_ok and fixed_ok
    verdict(6, ok,
            f"Newton mismatch {state.mismatch:.1e}, sensitivity error "
            f"{fd_err:.1e}, zero-error echo {identity_err:.1e}, "
            f"alternating solve in {result.outer_iterations} iterations")


def test_criterion_7_scale_sweep(tmp_path):
    result = run_cli(["sweep", "--config", CONFIG_DIR / "sweep300.ini",
                      "--set", "sweep.record_time=true"], cwd=tmp_path)
    rows = []
    if result.returncode == 0:
        rows = read_rows(tmp_path / "out" / "sweep300_sweep.csv")
    times = [float(r["time_s"]) for r in rows]
    ok = (result.returncode == 0 and len(rows) == 11
          and all(r["status"] == OPTIMAL for r in rows)
          and all(t <= 120.0 for t in times))
    verdict(7, ok,
            f"300-bus sweep: {len(rows)} solves, worst "
            f"{max(times, default=np.nan):.1f} s per solve (budget 120 s)")


def test_criterion_8_determinism(case14, fleet14, case14_tutorial,
                                 fleet14_tutorial, tmp_path):
    checks = []

    # violation-probability table (criterion 1 content)
    for run in range(2):
        out = tmp_path / f"eps{run}.csv"
        res = run_cli(["ambiguity", "eps", "--k-range", "180:200:2",
                       "--s", 200, "--csv", out], cwd=tmp_path)
        assert res.returncode == 0
    checks.append(((tmp_path / "eps0.csv").read_bytes()
                   == (tmp_path / "eps1.csv").read_bytes(), "eps table"))

    # sweep CSV with the criterion 3/4 instance (criteria 2-4 content)
    spec = GaussianSpec(forecasts=fleet14.forecasts, zeta=0.05, rho=0.2)
    train = sample(spec, 200, TRAIN_SEED)
    test = sample(spec, 2000, TEST_SEED)
    for run in range(2):
        rows, digest = sweep_k(_network_model("dc", case14, fleet14), train,
                               test, [196, 200], record_time=False)
        write_sweep_csv(rows, tmp_path / f"sweep{run}.csv", digest)
    checks.append(((tmp_path / "sweep0.csv").read_bytes()
                   == (tmp_path / "sweep1.csv").read_bytes(), "sweep CSV"))

    # walkthrough solve artifacts via the console entry point (criterion 5)
    for run in range(2):
        workdir = tmp_path / f"solve{run}"
        workdir.mkdir()
        res = run_cli(["solve", "dc", "--config",
                       CONFIG_DIR / "tutorial.ini"], cwd=workdir)
        assert res.returncode == 0, res.stderr
    for name in ("tutorial_solution.csv", "tutorial_report.csv"):
        same = ((tmp_path / "solve0" / "out" / name).read_bytes()
                == (tmp_path / "solve1" / "out" / name).read_bytes())
        checks.append((same, name))

    failed = [label for same, label in checks if not same]
    verdict(8, not failed,
            "byte-identical reruns for "
            + ", ".join(label for _, label in checks)
            + (f" (failed: {failed})" if failed else ""))
