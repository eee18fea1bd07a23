"""Command-line front end for the scenario-selection OPF toolkit.

Subcommands
-----------
case info       print network dimensions and totals
scenario gen    draw a forecast-error scenario set and write it as CSV
scenario stats  summarize a scenario CSV
ambiguity eps   best violation probability for an enforced count (CSV mode
                for ranges of k)
ambiguity k     enforced count for an (epsilon, radius) KL ball
ambiguity mink  smallest enforced count meeting a violation target
solve dc|ac     solve one dispatch instance and score it out of sample
sweep           solve a range of enforced counts, export CSV and SVG
eval            re-score a stored solution CSV on a fresh test set

solve, sweep and eval read their config once, in _resolve_run, into the
run it describes: the scenario sets, the output directory and file stem,
and one object per network model, chosen by name in _network_model:
_DcModel (the linearized rows) or _AcModel (the alternating solve).  It
solves a k-of-S selection, gives the robust cost that normalizes it, and
scores a dispatch out of sample; sweep_k, the k sweep, lives here next to
its command.

A run is described by one INI config file (see ``configs/``); any key can
be overridden with ``--set section.key=value``.  _KEYS types and checks
the value of each key in the README's table; another key is an error.
Artifacts are written only inside the configured output directory, and
every file carries the digest of the configuration that produced it, so
identical configs and seeds reproduce identical files.

Exit codes: 0 solved/success, 1 configuration or input error, 2 infeasible,
3 numerical failure or no proof of optimality.
"""

import argparse
import collections
import configparser
import contextlib
import dataclasses
import hashlib
import logging
import math
import os
import sys
import time

import numpy as np

from .ac_model import (
    AcEvaluator,
    FixedPointError,
    NewtonError,
    ac_row_set,
    fixed_point_solve,
)
from .ambiguity import (
    WORST_CASE_REQUIRED,
    AmbiguityParams,
    k_for,
    min_k_for_target,
    optimal_epsilon,
)
from .case_io import (
    CostOverrideError,
    build_fleet,
    load_case,
    packaged_case_path,
)
from .dc_model import assemble_cc_system, is_connected, make_cost
from .evaluation import (
    DcEvaluator,
    config_digest,
    ro_baseline,
    solve_dc_selection,
    violation_frequency,
    write_csv,
    write_sweep_csv,
    write_sweep_svg,
)
from .scenario_mip import INFEASIBLE, OPTIMAL, SolverOptions
from .scenarios import GaussianSpec, load_csv, sample, save_csv, summarize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

log = logging.getLogger("ccopf")


class CliError(Exception):
    """User-facing failure; the message is printed and the code returned."""

    def __init__(self, message, exit_code=EXIT_CONFIG):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# configuration


def _number(convert, what, ok=lambda value: True):
    """Parser of one finite number: convert (int or float) types the text
    and ok checks its range; what names the accepted values in the error."""
    def parse(raw):
        try:
            value = convert(raw)
            if abs(value) < math.inf and ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"must be {what}, got {raw!r}")
    return parse


def _list(item):
    """Parser of a comma- or space-separated list of item values."""
    return lambda raw: [item(tok) for tok in raw.replace(",", " ").split()]


def _bool(raw):
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if value is None:
        raise ValueError(f"must be true or false, got {raw!r}")
    return value


def _file(raw):
    if not os.path.isfile(raw):
        raise ValueError(f"no such file: {raw}")
    return raw


def _case_file(raw):
    """pkg:NAME names a bundled case, anything else a file path."""
    return packaged_case_path(raw[4:]) if raw.startswith("pkg:") else \
        _file(raw)


def _cost_rows(raw):
    """One c2 c1 c0 row per nonblank line, finite, with c2 >= 0."""
    rows = []
    for line in filter(str.strip, raw.splitlines()):
        row = _list(_FINITE)(line)
        if len(row) != 3 or row[0] < 0:
            raise ValueError(f"each row must be c2 c1 c0 with c2 >= 0, "
                             f"got {line.strip()!r}")
        rows.append(tuple(row))
    return rows


def _file_name(raw):
    """A name for a file inside the output directory: no path separator,
    and not a name of the directory itself or its parent."""
    if "/" in raw or os.sep in raw or raw in (".", ".."):
        raise ValueError(f"must be a file name without /, got {raw!r}")
    return raw


def _model_name(raw):
    if raw not in _MODELS:
        raise ValueError(f"must be {' or '.join(_MODELS)}, got {raw!r}")
    return raw


def _parse_k_values(raw):
    """Counts >= 1 from ``lo:hi[:step]`` (inclusive) or an explicit list."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"range must be lo:hi[:step], got {raw!r}")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        k_values = list(range(lo, hi + 1, step))
        if not k_values:
            raise ValueError(f"range is empty (lo > hi), got {raw!r}")
    else:
        k_values = _list(int)(raw)
    if not k_values or min(k_values) < 1:
        raise ValueError(f"must name counts >= 1, got {raw!r}")
    return k_values


_FINITE = _number(float, "a finite number")
_POSITIVE = _number(float, "a finite number > 0", lambda x: x > 0)
_COUNT = _number(int, "an integer >= 1", lambda n: n >= 1)
_SEED = _number(int, "an integer >= 0", lambda n: n >= 0)

# Every documented run configuration key (README, "Run configuration keys")
# and the parser that types its text and checks its range.
_KEYS = {
    "case.path": _case_file,
    "case.default_line_limit": _POSITIVE,
    "case.cost_override": _cost_rows,
    "fleet.buses": _list(_number(int, "an integer bus id")),
    "fleet.forecasts_mw": _list(_POSITIVE),
    "fleet.gamma": _FINITE,
    "scenarios.zeta": _POSITIVE,
    "scenarios.rho": _number(float, "a number in [0, 1)",
                             lambda x: 0 <= x < 1),
    **{f"scenarios.{which}_{part}": parser
       for which in ("train", "test", "ro")
       for part, parser in (("s", _COUNT), ("seed", _SEED), ("csv", _file))},
    "solve.model": _model_name,
    "solve.k": _COUNT,
    "solve.epsilon_target": _number(float, "a number in (0, 1]",
                                    lambda x: 0 < x <= 1),
    "solve.report_ro": _bool,
    "solve.include_slack_rows": _bool,
    "solve.node_limit": lambda raw: SolverOptions(
        node_limit=int(raw)).node_limit,
    "solve.rel_gap": lambda raw: SolverOptions(rel_gap=float(raw)).rel_gap,
    "sweep.k_values": _parse_k_values,
    "sweep.record_time": _bool,
    "output.dir": str,
    "output.prefix": _file_name,
}


def _read_config(path, overrides=()):
    """The typed values of an INI run config with its section.key=value
    overrides applied, by section.key; an empty value is unset.  A key
    outside _KEYS, or a value its parser rejects, is an error."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not os.path.isfile(path):
            raise CliError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or "." not in key:
            raise CliError(
                f"override {item!r} must look like section.key=value")
        section, _, option = (part.strip() for part in key.partition("."))
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, option, value.strip())
    values = {}
    for section in cfg.sections():
        for option, raw in cfg.items(section):
            key = f"{section}.{option}"
            if key not in _KEYS:
                raise CliError(f"unknown config key {key}")
            if raw:  # configparser strips values
                try:
                    values[key] = _KEYS[key](raw)
                except (OSError, ValueError) as exc:
                    raise CliError(f"config key {key}: {exc}") from exc
    return values


def _required(cfg, key, when=""):
    if key not in cfg:
        raise CliError(f"config key {key} is required{when}")
    return cfg[key]


def _build_case(cfg):
    path = _required(cfg, "case.path")
    kwargs = {name: cfg[f"case.{name}"]
              for name in ("default_line_limit", "cost_override")
              if f"case.{name}" in cfg}
    try:
        return load_case(path, **kwargs)
    except CostOverrideError as exc:
        raise CliError(f"config key case.cost_override: {exc}") from exc
    except Exception as exc:
        raise CliError(f"config key case.path: failed to load "
                       f"{path}: {exc}") from exc


def _build_fleet(cfg, case):
    buses = _required(cfg, "fleet.buses")
    mw = _required(cfg, "fleet.forecasts_mw")
    if len(mw) != len(buses):
        raise CliError(f"config key fleet.forecasts_mw: must give one value "
                       f"per bus, got {len(mw)} for {len(buses)} buses")
    try:
        idx = [case.bus_index(b) for b in buses]
        return build_fleet(case, idx, np.asarray(mw),
                           cfg.get("fleet.gamma", 0.0), forecasts_in_mw=True)
    except (KeyError, ValueError) as exc:
        raise CliError(f"config key fleet.buses: {exc}") from exc


def _build_spec(cfg, fleet):
    return GaussianSpec(forecasts=fleet.forecasts,
                        zeta=_required(cfg, "scenarios.zeta"),
                        rho=_required(cfg, "scenarios.rho"))


def _load_set(cfg, which, spec):
    """Scenario set named ``which`` (train/test/ro): CSV wins over sampling.
    Only ro is optional (None: the training set is the robust set)."""
    csv_path = cfg.get(f"scenarios.{which}_csv")
    if csv_path is not None:
        try:
            return load_csv(csv_path, spec)
        except (OSError, ValueError) as exc:
            raise CliError(f"config key scenarios.{which}_csv: {exc}") from exc
    s = cfg.get(f"scenarios.{which}_s")
    if s is None and which == "ro":
        return None
    if s is None:
        raise CliError(f"config key scenarios.{which}_s (or "
                       f"scenarios.{which}_csv) is required")
    seed = _required(cfg, f"scenarios.{which}_seed",
                     f" when scenarios.{which}_s is set")
    return sample(spec, s, seed)


def _choose_params(cfg, s):
    """Enforced count from solve.k or solve.epsilon_target (exactly one)."""
    k, target = cfg.get("solve.k"), cfg.get("solve.epsilon_target")
    if (k is None) == (target is None):
        state = "both given" if k is not None else "neither given"
        raise CliError("config keys solve.k / solve.epsilon_target: "
                       f"set exactly one ({state})")
    try:
        if target is not None:
            return AmbiguityParams.from_target(target, s)
        return AmbiguityParams.from_k(k, s)
    except ValueError as exc:
        key = "solve.epsilon_target" if target is not None else "solve.k"
        raise CliError(f"config key {key}: {exc}") from exc


# A config resolved once: the typed config values by section.key, the
# network model (which holds the case, fleet, solver options and row set),
# the scenario sets by name, and the artifact directory and file stem.
_Run = collections.namedtuple("_Run", "cfg model sets outdir prefix")


def _resolve_run(path, overrides=(), sets=("train", "test"), model=None):
    """The _Run of the config at path with its section.key=value overrides
    and the scenario sets named in sets.  model is the command's own model
    (solve dc|ac), which solve.model may only repeat; without one,
    solve.model chooses, dc by default.  Nothing is written."""
    cfg = _read_config(path, overrides)
    named = cfg.get("solve.model")
    if named is not None and model not in (None, named):
        raise CliError(f"config key solve.model: {named!r}, but the command "
                       f"solves {model!r}")
    model = model or named or "dc"
    case = _build_case(cfg)
    if not is_connected(case):
        raise CliError("config key case.path: the network is not connected "
                       "through its branches")
    fleet = _build_fleet(cfg, case)
    spec = _build_spec(cfg, fleet)
    loaded = {which: _load_set(cfg, which, spec) for which in sets}
    try:
        net = _network_model(
            model, case, fleet,
            options=SolverOptions(node_limit=cfg.get("solve.node_limit"),
                                  rel_gap=cfg.get("solve.rel_gap", 0.0)),
            include_slack_rows=cfg.get("solve.include_slack_rows", False))
    except ValueError as exc:  # a case the model cannot take
        raise CliError(f"config key case.path: {exc}") from exc
    return _Run(cfg, net, loaded, cfg.get("output.dir", "out"),
                cfg.get("output.prefix", f"{case.name}_{model}"))


@contextlib.contextmanager
def _writing(what="cannot write an output file"):
    """A failed write is an error line, what and then the OSError, not a
    traceback."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{what}: {exc}") from exc


def _make_outdir(outdir):
    """Make the artifact directory if missing; failing is a config error."""
    with _writing("config key output.dir"):
        os.makedirs(outdir, exist_ok=True)


@contextlib.contextmanager
def _run_log(outdir, prefix):
    """Send INFO lines to a deterministic per-run log file in outdir, made
    if missing, and name it last when the run returns."""
    _make_outdir(outdir)
    path = os.path.join(outdir, f"{prefix}.log")
    with _writing():
        handler = logging.FileHandler(path, mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(logging.INFO)
    log.addHandler(handler)
    try:
        yield
        log.info("log written to %s", path)
    finally:
        log.removeHandler(handler)
        handler.close()


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_solution_csv(path, case, dispatch, digest, *, cost, status):
    write_csv(path, digest,
              f"# status={status} cost={cost:.12g}\ngen,bus,p_pu,p_mw",
              (f"{g},{case.bus_ids[case.gen_bus[g]]},{x:.17g},"
               f"{x * case.base_mva:.12g}" for g, x in enumerate(dispatch)))


def _read_solution_csv(path, case):
    """Dispatch vector (p.u.) from a solution CSV whose rows are case's
    generators in order, each at its own bus."""
    dispatch = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("gen,"):
                continue
            parts = text.split(",")
            if len(parts) < 3:
                raise CliError(f"malformed solution row in {path}: {text!r}")
            g = len(dispatch)
            if g < case.n_gen:
                bus = int(case.bus_ids[case.gen_bus[g]])
                if [p.strip() for p in parts[:2]] != [str(g), str(bus)]:
                    raise CliError(f"solution row {g} in {path} must be "
                                   f"generator {g} at bus {bus}: {text!r}")
            try:
                value = float(parts[2])
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise CliError(f"p_pu is not a finite number in {path}: "
                               f"{text!r}")
            dispatch.append(value)
    if not dispatch:
        raise CliError(f"no dispatch rows found in {path}")
    if len(dispatch) != case.n_gen:
        raise CliError(f"solution has {len(dispatch)} generators, case "
                       f"{case.name} has {case.n_gen}")
    return np.asarray(dispatch)


def _write_report_csv(path, digest, report, *, cost, seeds, cost_vs_ro,
                      solve_stats):
    """A run's cost, robust cost ratio, scenario seeds (name -> seed),
    solve statistics (name -> value, or None) and the EvalReport's rates
    as a flat metric,name,value table."""
    lines = [f"joint_violation_rate,,{report.joint_violation_rate:.12g}",
             f"cost,,{_fmt(cost)}", f"cost_vs_ro,,{_fmt(cost_vs_ro)}"]
    for key, value in sorted(seeds.items()):
        lines.append(f"seed,{key},{value}")
    for key, value in sorted((solve_stats or {}).items()):
        lines.append(f"solve,{key},{_fmt(value)}")
    for name, rate in zip(report.row_names, report.per_row_rates):
        lines.append(f"per_row,{name},{rate:.12g}")
    write_csv(path, digest, "metric,name,value", lines)


# ---------------------------------------------------------------------------
# network models: solve, robust baseline and scoring, one object per model


class _DcModel:
    """Linearized network: one row system to select on, make robust and
    score against."""

    name = "dc"

    def __init__(self, case, fleet, options, include_slack_rows):
        self.case, self.fleet, self.options = case, fleet, options
        self.include_slack_rows = include_slack_rows
        self.cc = assemble_cc_system(case, fleet,
                                     include_slack_rows=include_slack_rows)
        self._evaluator = DcEvaluator(self.cc)

    def solve(self, train, k):
        """(selection, None)."""
        sol, _ = solve_dc_selection(self.case, self.fleet, train, k,
                                    cc=self.cc, options=self.options)
        return sol, None

    def robust(self, baseline_set):
        return ro_baseline(self.case, self.fleet, baseline_set, cc=self.cc)

    def score(self, dispatch, test):
        return violation_frequency(dispatch, test, self._evaluator)

    def summarize(self, sol, _):
        """Log the solve; return the report's solve statistics."""
        log.info("selection solve: %s after %d nodes / %d subproblem solves",
                 sol.status, sol.nodes, sol.qp_count)
        return {"nodes": sol.nodes, "qp_count": sol.qp_count, "gap": sol.gap}

    def write_extras(self, outdir, prefix, digest, _):
        return []


class _AcModel:
    """Nonlinear network: the alternating solve, its k = S run as the robust
    baseline, and a Newton re-solve per test scenario as the score."""

    name = "ac"

    def __init__(self, case, fleet, options, include_slack_rows):
        self.case, self.fleet, self.options = case, fleet, options
        self.include_slack_rows = include_slack_rows
        # Solve and score build their own; this one rejects, before any
        # work, a case the nonlinear model cannot take.
        ac_row_set(case, fleet, include_slack_rows=include_slack_rows)

    def solve(self, train, k):
        """(the final selection, its FixedPointResult)."""
        result = fixed_point_solve(
            self.case, self.fleet, train, AmbiguityParams.from_k(k, train.s),
            self.options, include_slack_rows=self.include_slack_rows)
        return result.selection, result

    def robust(self, baseline_set):
        return self.solve(baseline_set, baseline_set.s)[0]

    def score(self, dispatch, test):
        evaluator = AcEvaluator(self.case, self.fleet, dispatch,
                                include_slack_rows=self.include_slack_rows)
        report = violation_frequency(dispatch, test, evaluator)
        _log_newton_work(evaluator)
        return report

    def summarize(self, sol, result):
        """Log the solve; return the report's solve statistics."""
        log.info("alternating solve converged in %d outer iterations "
                 "(final step %.3g)", result.outer_iterations,
                 result.d_history[-1])
        return {"nodes": sol.nodes, "qp_count": sol.qp_count,
                "outer_iterations": result.outer_iterations}

    def write_extras(self, outdir, prefix, digest, result):
        """The operating point as a bus and a branch table, and the
        outer-iteration trail: step, state distance, selection objective."""
        case, state = self.case, result.state
        paths = [os.path.join(outdir, f"{prefix}_{name}.csv")
                 for name in ("state_bus", "state_branch", "trace")]
        vmag = np.sqrt(state.v)
        write_csv(paths[0], digest, "bus,id,kind,p_pu,q_pu,vmag_pu,theta_rad",
                  (f"{i},{case.bus_ids[i]},{case.bus_kind[i]},"
                   f"{state.p[i]:.12g},{state.q[i]:.12g},{vmag[i]:.12g},"
                   f"{state.theta[i]:.12g}" for i in range(case.n_bus)))
        n_br = case.n_branch
        write_csv(paths[1], digest, "branch,from_bus,to_bus,p_from_pu,p_to_pu",
                  (f"{b},{case.bus_ids[case.br_from[b]]},"
                   f"{case.bus_ids[case.br_to[b]]},{state.ell[b]:.12g},"
                   f"{state.ell[n_br + b]:.12g}" for b in range(n_br)))
        write_csv(paths[2], digest, "t,d,objective",
                  (f"{t},{d:.12g},{obj:.12g}" for t, (d, obj) in enumerate(
                      zip(result.d_history, result.obj_history), start=1)))
        return paths


_MODELS = {cls.name: cls for cls in (_DcModel, _AcModel)}


def _network_model(name, case, fleet, *, options=None,
                   include_slack_rows=False):
    """The model object solve, sweep and eval run for model name."""
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    return _MODELS[name](case, fleet, options or SolverOptions(),
                         include_slack_rows)


def _case_digest(case):
    """Digest of a loaded case's content: the file and both case overrides
    shape it."""
    h = hashlib.sha256()
    for field in dataclasses.fields(case):
        value = np.asarray(getattr(case, field.name))
        h.update(f"{field.name}:{value.dtype}{value.shape}:".encode())
        h.update(value.tobytes())
    return h.hexdigest()[:16]


def _run_digest(model, sets, **parts):
    """Digest of the resolved inputs of a run: the case content, the fleet,
    each scenario set given (name -> set or None) by size, seed and spec
    digest, the solver options, the model and its row set, and the
    command's own parts."""
    fleet = model.fleet
    return config_digest(
        case=_case_digest(model.case),
        fleet=(tuple(fleet.vre_buses.tolist()),
               tuple(fleet.forecasts.tolist()), fleet.gamma),
        sets=tuple((name, sset.s, sset.seed, sset.spec_digest)
                   for name, sset in sorted(sets.items())
                   if sset is not None),
        options=dataclasses.astuple(model.options), model=model.name,
        include_slack_rows=model.include_slack_rows, **parts)


def _log_newton_work(evaluator):
    """Log the Newton work of an AC scoring: its chord and exact step
    totals at DEBUG, and the test scenarios whose response did not solve,
    if any."""
    chord, exact = evaluator.chord_iterations, evaluator.exact_iterations
    log.debug("scored %d test scenarios: %d chord and %d exact Newton "
              "iterations", chord.size, chord.sum(), exact.sum())
    if evaluator.failed.size:
        log.info("Newton failed on %d of %d test scenarios (indices %s)",
                 evaluator.failed.size, chord.size,
                 " ".join(str(j) for j in evaluator.failed))


def _robust_objective(model, baseline_set):
    """Cost of the dispatch that enforces every scenario of baseline_set,
    the denominator of cost_vs_ro; nan, with the reason logged, when that
    solve fails or costs 0."""
    try:
        objective = model.robust(baseline_set).objective
    except (ValueError, RuntimeError) as exc:
        log.info("robust baseline failed: %s", exc)
        return np.nan
    if objective == 0:
        log.info("robust baseline costs 0: no cost ratio")
        return np.nan
    return objective


# ---------------------------------------------------------------------------
# subcommands


def cmd_case_info(args):
    overrides = list(args.set or ())
    if args.case:
        overrides.append(f"case.path={args.case}")
    cfg = _read_config(args.config, overrides)
    case = _build_case(cfg)
    print(f"name: {case.name}")
    print(f"base_mva: {case.base_mva:g}")
    print(f"buses: {case.n_bus}")
    print(f"generators: {case.n_gen}")
    print(f"branches: {case.n_branch}")
    print(f"total_load_mw: {case.p_load.sum() * case.base_mva:g}")
    print(f"generation_capacity_mw: {case.p_max.sum() * case.base_mva:g}")
    rated = int(np.isfinite(case.br_limit).sum())
    print(f"rated_branches: {rated}")
    return EXIT_OK


def cmd_scenario_gen(args):
    if args.out:
        try:
            _file_name(args.out)
        except ValueError as exc:
            raise CliError(f"--out: {exc}") from exc
    cfg = _read_config(args.config, args.set or ())
    if args.forecasts is not None:
        if args.zeta is None or args.rho is None:
            raise CliError("--forecasts needs --zeta and --rho as well")
        try:
            spec = GaussianSpec(forecasts=np.asarray(args.forecasts),
                                zeta=args.zeta, rho=args.rho)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        labels = None
    else:
        if args.config is None:
            raise CliError("scenario gen needs --config or explicit "
                           "--forecasts/--zeta/--rho")
        case = _build_case(cfg)
        fleet = _build_fleet(cfg, case)
        spec = _build_spec(cfg, fleet)
        labels = [f"bus{case.bus_ids[b]}" for b in fleet.vre_buses]
    try:
        sset = sample(spec, args.s, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    outdir = cfg.get("output.dir", "out")
    _make_outdir(outdir)
    name = args.out or f"scenarios_s{args.s}_seed{args.seed}.csv"
    path = os.path.join(outdir, name)
    with _writing():
        save_csv(sset, path, labels)
    print(f"wrote {path} (s={sset.s}, n_vre={sset.n_vre}, "
          f"digest={sset.spec_digest})")
    return EXIT_OK


def cmd_scenario_stats(args):
    try:
        sset = load_csv(args.file)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    stats = summarize(sset)
    for key in ("s", "n_vre", "total_mean", "total_std"):
        print(f"{key}: {_fmt(stats[key])}")
    for key in ("mean", "std", "min", "max"):
        vals = " ".join(f"{v:.6g}" for v in stats[key])
        print(f"{key}: {vals}")
    if "correlation" in stats:
        corr = stats["correlation"]
        off = corr[np.triu_indices_from(corr, k=1)]
        print(f"mean_offdiag_correlation: {off.mean():.6g}")
    return EXIT_OK


def cmd_ambiguity_eps(args):
    if (args.k is None) == (args.k_range is None):
        raise CliError("set exactly one of --k and --k-range")
    try:
        if args.k is not None:
            print(f"{optimal_epsilon(args.k, args.s)[0]:.6g}")
            return EXIT_OK
        lines = ["k,epsilon_star,bound"]
        for k in _parse_k_values(args.k_range):
            eps, bound = optimal_epsilon(k, args.s)
            lines.append(f"{k},{eps:.12g},{bound:.12g}")
    except ValueError as exc:
        flag = "--k" if args.k is not None else "--k-range"
        raise CliError(f"{flag}: {exc}") from exc
    text = "\n".join(lines) + "\n"
    if args.csv:
        with _writing("--csv"), open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ambiguity_k(args):
    try:
        k = k_for(args.eps, args.radius, args.s)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if k is WORST_CASE_REQUIRED:
        print("WORST_CASE_REQUIRED")
    else:
        print(k)
    return EXIT_OK


def cmd_ambiguity_mink(args):
    try:
        print(min_k_for_target(args.target, args.s))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return EXIT_OK


def _exit_code_for(status):
    if status == OPTIMAL:
        return EXIT_OK
    if status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_NUMERICAL


def cmd_solve(args):
    run = _resolve_run(args.config, args.set or (), ("train", "test", "ro"),
                       model=args.model)
    cfg, model, case = run.cfg, run.model, run.model.case
    train, test, ro_set = (run.sets[name] for name in ("train", "test", "ro"))
    params = _choose_params(cfg, train.s)  # before the log is truncated
    with _run_log(run.outdir, run.prefix):
        target = cfg.get("solve.epsilon_target")
        if target is not None:
            log.info("k = %d chosen for epsilon target %g "
                     "(epsilon* = %.6g)", params.k, target, params.epsilon)
        report_ro = cfg.get("solve.report_ro", True)
        digest = _run_digest(
            model, {"train": train, "test": test,
                    "ro": ro_set if report_ro else None}, k=params.k,
            report_ro=report_ro)
        log.info("case %s: %d buses, %d generators, %d branches",
                 case.name, case.n_bus, case.n_gen, case.n_branch)
        log.info("enforcing k = %d of S = %d scenarios "
                 "(epsilon* = %.6g, KL-ball margin %.6g)",
                 params.k, params.s, params.epsilon, params.bound)
        log.info("config digest %s", digest)

        start = time.perf_counter()
        try:
            sol, result = model.solve(train, params.k)
        except (FixedPointError, NewtonError) as exc:
            log.info("alternating solve failed: %s", exc)
            return (EXIT_INFEASIBLE if INFEASIBLE in str(exc)
                    else EXIT_NUMERICAL)
        log.debug("solve wall time %.2f s", time.perf_counter() - start)
        stats = model.summarize(sol, result)
        if sol.status != OPTIMAL:
            log.info("no dispatch written (status %s)", sol.status)
            return _exit_code_for(sol.status)

        cost_vs_ro = np.nan
        if report_ro:
            ro_objective = _robust_objective(
                model, ro_set if ro_set is not None else train)
            cost_vs_ro = sol.objective / ro_objective
            if np.isfinite(ro_objective):
                log.info("robust baseline cost %.6g; cost ratio %.6g",
                         ro_objective, cost_vs_ro)

        try:
            report = model.score(sol.x_star, test)
        except NewtonError as exc:
            log.info("out-of-sample scoring failed: %s", exc)
            return EXIT_NUMERICAL
        log.info("cost %.6g; joint violation %.6g on %d test scenarios "
                 "(KL-ball level epsilon* %.6g)", sol.objective,
                 report.joint_violation_rate, test.s, params.epsilon)

        paths = [os.path.join(run.outdir, f"{run.prefix}_{name}.csv")
                 for name in ("solution", "report")]
        with _writing():
            _write_solution_csv(paths[0], case, sol.x_star, digest,
                                cost=sol.objective, status=sol.status)
            _write_report_csv(paths[1], digest, report, cost=sol.objective,
                              seeds={"train": train.seed, "test": test.seed},
                              cost_vs_ro=cost_vs_ro, solve_stats=stats)
            paths += model.write_extras(run.outdir, run.prefix, digest,
                                        result)
        log.info("wrote %s", " and ".join(paths) if len(paths) == 2
                 else ", ".join(paths))
        return EXIT_OK


def _sweep_k_values(k_values, s):
    """The distinct counts of k_values, ascending, each in [1, s]."""
    k_values = sorted(set(int(k) for k in k_values))
    if not k_values:
        raise ValueError("empty k list")
    if k_values[0] < 1 or k_values[-1] > s:
        raise ValueError(f"k values must lie in [1, {s}]")
    return k_values


def sweep_k(net, training_set, test_set, k_values, *, ro_set=None,
            record_time=True):
    """Solve the k-of-S problem for each k on the network model net and
    score it out of sample; return (rows, digest) and write nothing.

    Rows are dicts keyed by evaluation.CSV_COLUMNS, in ascending epsilon*
    (descending k), and digest is that of the sweep's resolved inputs;
    cmd_sweep writes both with write_sweep_csv and write_sweep_svg.  Each
    row also holds its solution's nodes, qp_count, iterations, relaxed
    training scenarios (ascending) and message, which cmd_sweep logs.
    ro_set chooses the normalization baseline: by default the training set
    itself; pass a larger independent set to normalize against the sampled
    robust proxy; its size, seed and spec digest then enter the digest.
    A k whose solve or score raises is a row with status
    ERROR:<exception name> and the exception's text as message (and the
    search fields None if the solve raised), and the sweep goes on.
    A k's time is the wall time of its net.solve call, so work it shares
    with an earlier solve on the same scenario set counts only in the
    solve that did it first.  With record_time=False every time is zero
    so repeated runs produce byte-identical files.
    """
    s = training_set.s
    k_values = _sweep_k_values(k_values, s)
    ro_objective = _robust_objective(
        net, ro_set if ro_set is not None else training_set)
    rows = []
    for k in k_values:
        params = AmbiguityParams.from_k(k, s)
        row = {"k": k, "epsilon_star": params.epsilon,
               "bound": params.bound, "cost": np.nan, "cost_vs_ro": np.nan,
               "joint_violation": np.nan, "time_s": 0.0, "status": "",
               "nodes": None, "qp_count": None, "iterations": None,
               "relaxed": None, "message": ""}
        try:
            start = time.perf_counter()
            sol, _ = net.solve(training_set, k)
            elapsed = time.perf_counter() - start
            row.update(nodes=sol.nodes, qp_count=sol.qp_count,
                       iterations=sol.iterations, message=sol.message,
                       relaxed=() if sol.z_star is None else tuple(
                           np.flatnonzero(sol.z_star).tolist()))
            if sol.status == OPTIMAL:
                report = net.score(sol.x_star, test_set)
        except Exception as exc:  # row-level failure, sweep continues
            row["status"] = f"ERROR:{type(exc).__name__}"
            row["message"] = str(exc)
            rows.append(row)
            continue
        row["status"] = sol.status
        if record_time:
            row["time_s"] = elapsed
        if sol.status == OPTIMAL:
            row["cost"] = sol.objective
            row["cost_vs_ro"] = sol.objective / ro_objective
            row["joint_violation"] = report.joint_violation_rate
        rows.append(row)
    rows.sort(key=lambda r: r["epsilon_star"])

    digest = _run_digest(net, {"train": training_set, "test": test_set,
                               "ro": ro_set}, k_values=tuple(k_values))
    return rows, digest


def cmd_sweep(args):
    run = _resolve_run(args.config, args.set or (), ("train", "test", "ro"))
    cfg, train = run.cfg, run.sets["train"]
    try:
        k_values = _sweep_k_values(_required(cfg, "sweep.k_values"), train.s)
    except ValueError as exc:
        raise CliError(f"config key sweep.k_values: {exc}") from exc
    record_time = cfg.get("sweep.record_time", True)

    with _run_log(run.outdir, run.prefix):
        rows, digest = sweep_k(
            run.model, train, run.sets["test"], k_values,
            ro_set=run.sets["ro"], record_time=record_time)
        csv_path = os.path.join(run.outdir, f"{run.prefix}_sweep.csv")
        svg_path = os.path.join(run.outdir, f"{run.prefix}_sweep.svg")
        with _writing():
            write_sweep_csv(rows, csv_path, digest)
            write_sweep_svg(rows, svg_path, run.model.case.name)
        log.info("config digest %s", digest)
        errors = 0
        for row in rows:
            search = "" if row["nodes"] is None else (
                f" nodes={row['nodes']} qps={row['qp_count']} "
                f"iterations={row['iterations']} "
                f"relaxed={','.join(map(str, row['relaxed']))}")
            if row["status"] == OPTIMAL:
                log.info("k=%d epsilon*=%.6g cost=%.6g ratio=%.6g "
                         "violation=%.6g%s", row["k"], row["epsilon_star"],
                         row["cost"], row["cost_vs_ro"],
                         row["joint_violation"], search)
            else:
                errors += 1
                reason = f" reason={row['message']}" if row["message"] else ""
                log.info("k=%d epsilon*=%.6g status=%s%s%s", row["k"],
                         row["epsilon_star"], row["status"], search, reason)
        log.info("wrote %s and %s (%d rows, %d failed)",
                 csv_path, svg_path, len(rows), errors)
        return EXIT_OK


def cmd_eval(args):
    run = _resolve_run(args.config, args.set or (), ("test",))
    model, test = run.model, run.sets["test"]
    if not os.path.isfile(args.solution):
        raise CliError(f"solution file not found: {args.solution}")
    dispatch = _read_solution_csv(args.solution, model.case)
    cost = make_cost(model.case).value(dispatch)
    digest = _run_digest(model, {"test": test},
                         dispatch=tuple(dispatch.tolist()))
    _make_outdir(run.outdir)
    try:
        report = model.score(dispatch, test)
    except NewtonError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL) from exc
    rep_path = os.path.join(run.outdir, f"{run.prefix}_eval.csv")
    with _writing():
        _write_report_csv(rep_path, digest, report, cost=cost,
                          seeds={"test": test.seed}, cost_vs_ro=np.nan,
                          solve_stats=None)
    print(f"joint_violation_rate: {report.joint_violation_rate:.6g}")
    print(f"cost: {cost:.12g}")
    print(f"wrote {rep_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_config_args(p):
    p.add_argument("--config", "-c", help="INI run configuration file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override a config key (repeatable)")


def build_parser():
    parser = _Parser(
        prog="ccopf",
        description="Joint chance-constrained OPF by exact scenario "
                    "selection: solve, sweep, and score dispatch problems.",
        epilog="Exit codes: 0 solved/success, 1 configuration or input "
               "error, 2 infeasible, 3 numerical failure or no proof of "
               "optimality.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_case = sub.add_parser("case", help="network case utilities")
    case_sub = p_case.add_subparsers(dest="subcommand", required=True,
                                     parser_class=_Parser)
    p_info = case_sub.add_parser(
        "info", help="print bus/generator/branch counts and totals")
    p_info.add_argument("--case", help="case path or pkg:NAME "
                                       "(overrides the config)")
    _add_config_args(p_info)
    p_info.set_defaults(func=cmd_case_info)

    p_scen = sub.add_parser("scenario", help="forecast-error scenario sets")
    scen_sub = p_scen.add_subparsers(dest="subcommand", required=True,
                                     parser_class=_Parser)
    p_gen = scen_sub.add_parser(
        "gen", help="draw a scenario set and write it as CSV")
    _add_config_args(p_gen)
    p_gen.add_argument("--s", type=int, required=True,
                       help="number of scenarios")
    p_gen.add_argument("--seed", type=int, required=True,
                       help="random seed (identical seeds give identical "
                            "files)")
    p_gen.add_argument("--out", help="file name inside the output directory")
    p_gen.add_argument("--forecasts", type=float, nargs="+",
                       help="per-unit forecast outputs (bypasses the config "
                            "fleet)")
    p_gen.add_argument("--zeta", type=float,
                       help="variance scale (with --forecasts)")
    p_gen.add_argument("--rho", type=float,
                       help="pairwise correlation (with --forecasts)")
    p_gen.set_defaults(func=cmd_scenario_gen)
    p_stats = scen_sub.add_parser("stats", help="summarize a scenario CSV")
    p_stats.add_argument("file", help="scenario CSV path")
    p_stats.set_defaults(func=cmd_scenario_stats)

    p_amb = sub.add_parser("ambiguity",
                           help="enforced-count / violation arithmetic")
    amb_sub = p_amb.add_subparsers(dest="subcommand", required=True,
                                   parser_class=_Parser)
    p_eps = amb_sub.add_parser(
        "eps", help="best violation probability for an enforced count")
    p_eps.add_argument("--k", type=int, help="enforced scenario count")
    p_eps.add_argument("--k-range", metavar="LO:HI[:STEP]",
                       help="emit a CSV over a range of counts")
    p_eps.add_argument("--s", type=int, required=True,
                       help="total scenario count")
    p_eps.add_argument("--csv", help="write the range table to this file")
    p_eps.set_defaults(func=cmd_ambiguity_eps)
    p_k = amb_sub.add_parser(
        "k", help="enforced count for an (epsilon, radius) KL ball")
    p_k.add_argument("--eps", type=float, required=True,
                     help="violation probability")
    p_k.add_argument("--radius", type=float, required=True,
                     help="divergence ball radius")
    p_k.add_argument("--s", type=int, required=True,
                     help="total scenario count")
    p_k.set_defaults(func=cmd_ambiguity_k)
    p_mink = amb_sub.add_parser(
        "mink", help="smallest enforced count meeting a violation target")
    p_mink.add_argument("--target", type=float, required=True,
                        help="violation probability target")
    p_mink.add_argument("--s", type=int, required=True,
                        help="total scenario count")
    p_mink.set_defaults(func=cmd_ambiguity_mink)

    p_solve = sub.add_parser(
        "solve", help="solve one dispatch instance and score it")
    solve_sub = p_solve.add_subparsers(dest="model", required=True,
                                       parser_class=_Parser)
    for model, blurb in (("dc", "linearized network"),
                         ("ac", "nonlinear network, alternating solve")):
        p_m = solve_sub.add_parser(model, help=blurb)
        _add_config_args(p_m)
        p_m.set_defaults(func=cmd_solve, model=model)

    p_sweep = sub.add_parser(
        "sweep", help="solve a range of enforced counts, export CSV + SVG")
    _add_config_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser(
        "eval", help="re-score a stored solution CSV on a test set")
    _add_config_args(p_eval)
    p_eval.add_argument("--solution", required=True,
                        help="solution CSV produced by solve")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not log.handlers:
        console = logging.StreamHandler(sys.stdout)
        console.setFormatter(logging.Formatter("%(message)s"))
        console.setLevel(logging.DEBUG)
        log.addHandler(console)
    log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
