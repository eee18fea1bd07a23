"""The benchmark's workloads: inputs from the bundled configs, one pipeline
request, and the correctness checks applied to every returned dispatch.

A request is one whole pipeline run in the current process, in the order
the CLI runs it: build the inputs (case, fleet, scenario sets, rows), solve
(robust baseline and every selection, or the AC fixed point), score out of
sample, and write the results table.  ``ccopf`` is imported from the
repository's ``src/`` directory by absolute path, because the package is
not installed where the benchmark runs.
"""

from __future__ import annotations

import configparser
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if not (SRC / "ccopf" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ccopf package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ccopf.ac_model import (  # noqa: E402
    AcEvaluator,
    ac_row_set,
    fixed_point_solve,
    linearize_cc_system,
    loss_balance_equality,
    response_jacobian,
)
from ccopf.ambiguity import AmbiguityParams  # noqa: E402
from ccopf.case_io import build_fleet, load_case, packaged_case_path  # noqa: E402
from ccopf.dc_model import (  # noqa: E402
    assemble_cc_system,
    balance_equality,
    make_cost,
)
from ccopf.evaluation import (  # noqa: E402
    DcEvaluator,
    config_digest,
    ro_baseline,
    solve_dc_selection,
    violation_frequency,
    write_sweep_csv,
    write_sweep_svg,
)
from ccopf.scenario_mip import OPTIMAL, build_selection_from_ccopf  # noqa: E402
from ccopf.scenarios import GaussianSpec, sample  # noqa: E402

CONFIGS = REPO / "configs"
OUT = REPO / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Seeds of request `instance` in a run with workload seed `seed`: each
# config seed shifted by SEED_STRIDE * (INSTANCES_PER_SEED * seed +
# instance).  Seed 0, instance 0 is the config's own seeds, where the
# committed reference results apply.
SEED_STRIDE = 1000
INSTANCES_PER_SEED = 1000

FEAS_TOL = 1e-7  # the solver's own row tolerance, absolute
COST_RTOL = 1e-9
DISPATCH_ATOL = 1e-9


# name -> (config under configs/, the k values a request solves; None
# takes the config's own k or k grid).  BENCHMARK.json says why each.
WORKLOADS = {
    # The full 11-point sweep takes about 85 s, longer than one run may
    # last, so a request solves k = 297 (3 relaxed scenarios, a 10-40 node
    # tree of 1712-row QPs) plus the robust baseline, and the loop spreads
    # the tree-size variance across many training sets.
    "dc300-sweep": ("sweep300.ini", (297,)),
    "dc14-sweep": ("sweep14.ini", None),
    "ac14-solve": ("ac14.ini", None),
}


# --- inputs ----------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """What a config asks for, in the terms the pipeline needs."""

    case: str
    buses: tuple
    forecasts_mw: tuple
    gamma: float
    zeta: float
    rho: float
    sizes: dict  # scenario set name -> count
    seeds: dict  # scenario set name -> config seed
    model: str
    k_values: tuple


def _k_values(raw):
    """``lo:hi[:step]`` (inclusive) or an explicit list, as the CLI reads it."""
    if ":" in raw:
        lo, hi, *step = (int(p) for p in raw.split(":"))
        return tuple(range(lo, hi + 1, step[0] if step else 1))
    return tuple(int(t) for t in raw.replace(",", " ").split())


def read_plan(workload):
    config, k_values = WORKLOADS[workload]
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(CONFIGS / config, encoding="utf-8") as fh:
        cfg.read_file(fh)
    sizes, seeds = {}, {}
    for which in ("train", "test", "ro"):
        if cfg.has_option("scenarios", f"{which}_s"):
            sizes[which] = cfg.getint("scenarios", f"{which}_s")
            seeds[which] = cfg.getint("scenarios", f"{which}_seed")
    if k_values is None and cfg.has_option("sweep", "k_values"):
        k_values = _k_values(cfg.get("sweep", "k_values"))
    elif k_values is None:
        k_values = (cfg.getint("solve", "k"),)
    return Plan(
        case=cfg.get("case", "path"),
        buses=tuple(int(t) for t in cfg.get("fleet", "buses").split()),
        forecasts_mw=tuple(
            float(t) for t in cfg.get("fleet", "forecasts_mw").split()),
        gamma=cfg.getfloat("fleet", "gamma"),
        zeta=cfg.getfloat("scenarios", "zeta"),
        rho=cfg.getfloat("scenarios", "rho"),
        sizes=sizes, seeds=seeds,
        model=cfg.get("solve", "model"),
        k_values=k_values)


def derived_seeds(plan, seed, instance):
    shift = SEED_STRIDE * (INSTANCES_PER_SEED * seed + instance)
    return {which: s + shift for which, s in plan.seeds.items()}


@dataclass
class Inputs:
    plan: Plan
    case: object
    fleet: object
    sets: dict  # name -> ScenarioSet
    cc: object = None  # DC chance-constraint rows

    @property
    def baseline_set(self):
        return self.sets.get("ro", self.sets["train"])


def build_inputs(plan, seeds):
    """Case loaded, fleet built, scenario sets sampled, rows assembled."""
    if not plan.case.startswith("pkg:"):
        raise ValueError(f"expected a bundled case, got {plan.case!r}")
    case = load_case(packaged_case_path(plan.case[4:]))
    fleet = build_fleet(case, [case.bus_index(b) for b in plan.buses],
                        np.asarray(plan.forecasts_mw), plan.gamma,
                        forecasts_in_mw=True)
    spec = GaussianSpec(forecasts=fleet.forecasts, zeta=plan.zeta,
                        rho=plan.rho)
    sets = {which: sample(spec, plan.sizes[which], seeds[which])
            for which in plan.sizes}
    cc = assemble_cc_system(case, fleet) if plan.model == "dc" else None
    return Inputs(plan, case, fleet, sets, cc)


# --- one request -------------------------------------------------------------


@dataclass
class Solve:
    """One solve of the request and what became of it."""

    kind: str  # "ro", "selection" or "fixed_point"
    k: int
    status: str
    x: np.ndarray | None = None
    objective: float = np.nan
    joint_violation: float = np.nan
    result: object = None  # FixedPointResult for the AC fixed point
    failures: list = field(default_factory=list)


@dataclass
class Request:
    inputs: Inputs
    solves: list
    times: dict  # phase -> seconds


def _attempt(kind, k, fn):
    try:
        return fn()
    except Exception as exc:  # a raising solve is a failed solve
        return Solve(kind, k, f"ERROR:{type(exc).__name__}",
                     failures=[f"raised {type(exc).__name__}: {exc}"])


def _dc_solves(inputs):
    case, fleet, cc = inputs.case, inputs.fleet, inputs.cc
    train = inputs.sets["train"]

    def ro():
        sol = ro_baseline(case, fleet, inputs.baseline_set, cc=cc)
        return Solve("ro", inputs.baseline_set.s, sol.status, sol.x_star,
                     sol.objective)

    def selection(k):
        sol, _ = solve_dc_selection(case, fleet, train, k, cc=cc)
        return Solve("selection", k, sol.status, sol.x_star, sol.objective)

    solves = [_attempt("ro", inputs.baseline_set.s, ro)]
    for k in sorted(inputs.plan.k_values):
        solves.append(_attempt("selection", k, lambda k=k: selection(k)))
    return solves


def _ac_solves(inputs):
    train = inputs.sets["train"]
    (k,) = inputs.plan.k_values

    def fixed_point():
        result = fixed_point_solve(inputs.case, inputs.fleet, train,
                                   AmbiguityParams.from_k(k, train.s))
        sol = result.selection
        return Solve("fixed_point", k, sol.status, sol.x_star,
                     sol.objective, result=result)

    return [_attempt("fixed_point", k, fixed_point)]


def _score(inputs, solves):
    test = inputs.sets["test"]
    dc_eval = DcEvaluator(inputs.cc) if inputs.cc is not None else None
    for s in solves:
        if s.kind == "ro" or s.status != OPTIMAL:
            continue
        try:
            evaluator = (dc_eval if dc_eval is not None else
                         AcEvaluator(inputs.case, inputs.fleet, s.x))
            report = violation_frequency(s.x, test, evaluator)
        except Exception as exc:  # scoring failure fails the solve
            s.failures.append(f"scoring raised {type(exc).__name__}: {exc}")
            continue
        s.joint_violation = report.joint_violation_rate


def _write(inputs, solves, outdir):
    """Results table as ``ccopf sweep`` writes it (plus its SVG for DC)."""
    plan, train, test = inputs.plan, inputs.sets["train"], inputs.sets["test"]
    ro = next((s for s in solves if s.kind == "ro"), None)
    rows = []
    for s in solves:
        if s.kind == "ro":
            continue
        params = AmbiguityParams.from_k(s.k, train.s)
        ratio = (s.objective / ro.objective
                 if ro is not None and ro.status == OPTIMAL else np.nan)
        rows.append({"k": s.k, "epsilon_star": params.epsilon,
                     "bound": params.bound, "cost": s.objective,
                     "cost_vs_ro": ratio,
                     "joint_violation": s.joint_violation, "time_s": 0.0,
                     "status": s.status})
    rows.sort(key=lambda r: r["epsilon_star"])
    digest = config_digest(case=inputs.case.name, s=train.s,
                           k_values=plan.k_values, model=plan.model,
                           train_seed=train.seed, test_seed=test.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, outdir / "results.csv", digest)
    if plan.model == "dc":
        write_sweep_svg(rows, outdir / "results.svg", inputs.case.name)


def run_request(plan, seeds, outdir):
    """One closed-loop request: the whole pipeline, with phase times."""
    t0 = time.perf_counter()
    inputs = build_inputs(plan, seeds)
    t1 = time.perf_counter()
    solves = (_dc_solves if plan.model == "dc" else _ac_solves)(inputs)
    t2 = time.perf_counter()
    _score(inputs, solves)
    t3 = time.perf_counter()
    _write(inputs, solves, outdir)
    t4 = time.perf_counter()
    times = {"setup": t1 - t0, "solve": t2 - t1, "score": t3 - t2,
             "write": t4 - t3, "wall": t4 - t0}
    return Request(inputs, solves, times)


# --- correctness -----------------------------------------------------------


def _check_dispatch(problem, x, objective):
    """Reasons x is not a k-of-S dispatch of problem at the reported cost."""
    base, failures = problem.base, []
    if base.a_eq.size:
        residual = float(np.max(np.abs(base.a_eq @ x - base.b_eq)))
        if residual > FEAS_TOL:
            failures.append(f"balance residual {residual:.3e}")
    if base.a_ineq.size:
        excess = float(np.max(base.a_ineq @ x - base.b_ineq))
        if excess > FEAS_TOL:
            failures.append(f"base rows exceeded by {excess:.3e}")
    held = sum(float(np.max(a @ x - b)) <= FEAS_TOL for a, b in problem.blocks)
    if held < problem.k:
        failures.append(f"{held} scenario blocks hold, k={problem.k}")
    value = problem.cost.value(x)
    if abs(value - objective) > COST_RTOL * max(1.0, abs(objective)):
        failures.append(f"reported cost {objective!r} but cost.value(x) = "
                        f"{value!r}")
    return failures


def _selection_problem(inputs, s):
    """The k-of-S problem a returned dispatch must solve, rebuilt here."""
    case, fleet = inputs.case, inputs.fleet
    if s.kind == "fixed_point":
        # The linearization at the converged operating point, as the last
        # selection stage saw it up to the fixed-point tolerance.
        state = s.result.state
        rows = ac_row_set(case, fleet)
        jac = response_jacobian(case, fleet, state, rows=rows).j_matrix
        cc = linearize_cc_system(case, fleet, state, s.x, sens_rows=jac,
                                 rows=rows)
        equalities = loss_balance_equality(case, fleet, state, s.x)
        xi = inputs.sets["train"].xi
    else:
        cc, equalities = inputs.cc, balance_equality(case, fleet)
        xi = (inputs.baseline_set if s.kind == "ro"
              else inputs.sets["train"]).xi
    return build_selection_from_ccopf(cc, xi, make_cost(case), s.k,
                                      equalities=equalities)


def _reference_failures(reference, s):
    """Differences from the committed results at the config's own seeds."""
    if s.kind == "ro":
        expected = {"cost": reference["ro_cost"]}
    elif s.kind == "fixed_point":
        expected = reference
    else:
        expected = reference["rows"].get(str(s.k))
        if expected is None:
            return [f"no committed reference row for k={s.k}"]
    failures = []
    if expected.get("status", OPTIMAL) != s.status:
        failures.append(f"status {s.status}, reference {expected['status']}")
    cost = expected["cost"]
    if not abs(s.objective - cost) <= COST_RTOL * abs(cost):
        failures.append(f"cost {s.objective!r}, reference {cost!r}")
    if "joint_violation" in expected:
        # One test scenario may flip when the dispatch moves in its last
        # digits; anything more is a different answer.
        tol = 1.0 / reference["test_s"] + 1e-12
        if not abs(s.joint_violation - expected["joint_violation"]) <= tol:
            failures.append(f"joint violation {s.joint_violation!r}, "
                            f"reference {expected['joint_violation']!r}")
    if "dispatch" in expected:
        gap = float(np.max(np.abs(s.x - np.asarray(expected["dispatch"]))))
        if gap > DISPATCH_ATOL:
            failures.append(f"dispatch differs from reference by {gap:.3e}")
    return failures


def load_reference(workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_request(request, reference=None):
    """Fill each solve's failure list; reference applies at config seeds."""
    for s in request.solves:
        if s.status != OPTIMAL:
            s.failures.append(f"status {s.status}")
            continue
        s.failures += _check_dispatch(
            _selection_problem(request.inputs, s), s.x, s.objective)
        if reference is not None:
            s.failures += _reference_failures(reference, s)
