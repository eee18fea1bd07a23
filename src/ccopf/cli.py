"""Command-line front end for the scenario-selection OPF toolkit.

Subcommands
-----------
case info       print network dimensions and totals
scenario gen    draw a forecast-error scenario set and write it as CSV
scenario stats  summarize a scenario CSV
ambiguity eps   best violation probability for an enforced count (CSV mode
                for ranges of k)
ambiguity k     enforced count certified for an (epsilon, radius) pair
ambiguity mink  smallest enforced count meeting a violation target
solve dc|ac     solve one dispatch instance and score it out of sample
sweep           solve a range of enforced counts, export CSV and SVG
eval            re-score a stored solution CSV on a fresh test set

A run is described by one INI config file (see ``configs/``); any key can
be overridden on the command line with ``--set section.key=value``.  The
documented key set lives in the README.  Artifacts are written only inside
the configured output directory, and every file carries the digest of the
configuration that produced it, so identical configs and seeds reproduce
identical files.

Exit codes: 0 solved/success, 1 configuration or input error, 2 infeasible,
3 numerical failure or no proof of optimality.
"""

import argparse
import configparser
import logging
import os
import sys

import numpy as np

from .ac_model import (
    AcEvaluator,
    AcSweepDriver,
    FixedPointError,
    fixed_point_solve,
)
from .ambiguity import (
    WORST_CASE_REQUIRED,
    AmbiguityParams,
    k_for,
    min_k_for_target,
    optimal_epsilon,
)
from .case_io import build_fleet, load_case, packaged_case_path
from .dc_model import assemble_cc_system, make_cost
from .evaluation import (
    DcEvaluator,
    config_digest,
    ro_baseline,
    solve_dc_selection,
    sweep_k,
    violation_frequency,
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


def _read_config(path, overrides=()):
    """Parse an INI run config and apply section.key=value overrides."""
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
        section, _, option = key.partition(".")
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section.strip(), option.strip(), value.strip())
    return cfg


def _get(cfg, section, option, default=None):
    if cfg.has_option(section, option):
        value = cfg.get(section, option).strip()
        if value:
            return value
    return default


def _get_typed(cfg, section, option, conv, default=None):
    raw = _get(cfg, section, option)
    if raw is None:
        return default
    try:
        return conv(raw)
    except ValueError as exc:
        raise CliError(f"config key {section}.{option}: {exc}") from exc


_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def _to_bool(raw):
    try:
        return _BOOL[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _to_floats(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _to_ints(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _parse_k_values(raw):
    """Accept ``lo:hi[:step]`` (inclusive) or an explicit list of counts."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"range must be lo:hi[:step], got {raw!r}")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        return list(range(lo, hi + 1, step))
    return _to_ints(raw)


def _resolve_case_path(spec_str):
    """Map ``pkg:name`` to a bundled case, anything else to a file path."""
    if spec_str.startswith("pkg:"):
        try:
            return packaged_case_path(spec_str[4:])
        except FileNotFoundError as exc:
            raise CliError(f"config key case.path: {exc}") from exc
    if not os.path.isfile(spec_str):
        raise CliError(f"config key case.path: no such file: {spec_str}")
    return spec_str


def _build_case(cfg):
    raw = _get(cfg, "case", "path")
    if raw is None:
        raise CliError("config key case.path is required")
    path = _resolve_case_path(raw)
    kwargs = {}
    limit = _get_typed(cfg, "case", "default_line_limit", float)
    if limit is not None:
        kwargs["default_line_limit"] = limit
    override = _get(cfg, "case", "cost_override")
    if override is not None:
        rows = []
        for line in override.splitlines():
            vals = _to_floats(line)
            if not vals:
                continue
            if len(vals) != 3:
                raise CliError(
                    "config key case.cost_override: each row needs "
                    f"c2 c1 c0, got {line.strip()!r}")
            rows.append(tuple(vals))
        kwargs["cost_override"] = rows
    try:
        return load_case(path, **kwargs)
    except Exception as exc:
        raise CliError(f"config key case.path: failed to load "
                       f"{path}: {exc}") from exc


def _build_fleet(cfg, case):
    buses = _get_typed(cfg, "fleet", "buses", _to_ints)
    if buses is None:
        raise CliError("config key fleet.buses is required")
    mw = _get_typed(cfg, "fleet", "forecasts_mw", _to_floats)
    pu = _get_typed(cfg, "fleet", "forecasts_pu", _to_floats)
    if (mw is None) == (pu is None):
        raise CliError("config keys fleet.forecasts_mw / fleet.forecasts_pu: "
                       "set exactly one")
    gamma = _get_typed(cfg, "fleet", "gamma", float, 0.0)
    try:
        idx = [case.bus_index(b) for b in buses]
        return build_fleet(case, idx, np.asarray(mw if pu is None else pu),
                           gamma, forecasts_in_mw=pu is None)
    except (KeyError, ValueError) as exc:
        raise CliError(f"config key fleet.buses: {exc}") from exc


def _build_spec(cfg, fleet):
    zeta = _get_typed(cfg, "scenarios", "zeta", float)
    rho = _get_typed(cfg, "scenarios", "rho", float)
    if zeta is None or rho is None:
        raise CliError(
            "config keys scenarios.zeta and scenarios.rho are required")
    try:
        return GaussianSpec(forecasts=fleet.forecasts, zeta=zeta, rho=rho)
    except ValueError as exc:
        raise CliError(f"config section scenarios: {exc}") from exc


def _load_set(cfg, which, spec):
    """Scenario set named ``which`` (train/test/ro): CSV wins over sampling."""
    csv_path = _get(cfg, "scenarios", f"{which}_csv")
    if csv_path is not None:
        if not os.path.isfile(csv_path):
            raise CliError(f"config key scenarios.{which}_csv: "
                           f"no such file: {csv_path}")
        return load_csv(csv_path, spec)
    s = _get_typed(cfg, "scenarios", f"{which}_s", int)
    if s is None:
        return None
    seed = _get_typed(cfg, "scenarios", f"{which}_seed", int)
    if seed is None:
        raise CliError(f"config key scenarios.{which}_seed is required "
                       f"when scenarios.{which}_s is set")
    return sample(spec, s, seed)


def _require_set(cfg, which, spec):
    sset = _load_set(cfg, which, spec)
    if sset is None:
        raise CliError(f"config key scenarios.{which}_s (or "
                       f"scenarios.{which}_csv) is required")
    return sset


def _choose_params(cfg, s):
    """Enforced count from solve.k or solve.epsilon_target (exactly one)."""
    k = _get_typed(cfg, "solve", "k", int)
    target = _get_typed(cfg, "solve", "epsilon_target", float)
    if (k is None) == (target is None):
        state = "both given" if k is not None else "neither given"
        raise CliError("config keys solve.k / solve.epsilon_target: "
                       f"set exactly one ({state})")
    try:
        if target is not None:
            params = AmbiguityParams.from_target(target, s)
            log.info("k = %d chosen for epsilon target %g "
                     "(epsilon* = %.6g)", params.k, target, params.epsilon)
            return params
        return AmbiguityParams.from_k(k, s)
    except ValueError as exc:
        key = "solve.epsilon_target" if target is not None else "solve.k"
        raise CliError(f"config key {key}: {exc}") from exc


def _solver_options(cfg):
    kwargs = {}
    node_limit = _get_typed(cfg, "solve", "node_limit", int)
    if node_limit is not None:
        kwargs["node_limit"] = node_limit
    rel_gap = _get_typed(cfg, "solve", "rel_gap", float)
    if rel_gap is not None:
        kwargs["rel_gap"] = rel_gap
    return SolverOptions(**kwargs)


def _output_dir(cfg):
    out = _get(cfg, "output", "dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _prefix(cfg, case, model):
    return _get(cfg, "output", "prefix", f"{case.name}_{model}")


def _attach_log_file(outdir, prefix):
    """Send INFO lines to a deterministic per-run log file in outdir."""
    path = os.path.join(outdir, f"{prefix}.log")
    handler = logging.FileHandler(path, mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(logging.INFO)
    log.addHandler(handler)
    return path, handler


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_solution_csv(path, case, dispatch, digest, *, cost, status):
    lines = [f"# config={digest}",
             f"# status={status} cost={cost:.12g}",
             "gen,bus,p_pu,p_mw"]
    for g, x in enumerate(dispatch):
        bus_id = case.bus_ids[case.gen_bus[g]]
        lines.append(f"{g},{bus_id},{x:.17g},{x * case.base_mva:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_solution_csv(path):
    """Dispatch vector (p.u., generator order) from a solution CSV."""
    dispatch = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("gen,"):
                continue
            parts = text.split(",")
            if len(parts) < 3:
                raise CliError(f"malformed solution row in {path}: {text!r}")
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
    return np.asarray(dispatch)


def _write_report_csv(path, report):
    """EvalReport as a flat metric,name,value table."""
    lines = [f"# config={report.config_digest}", "metric,name,value",
             f"joint_violation_rate,,{report.joint_violation_rate:.12g}",
             f"cost,,{_fmt(report.cost)}",
             f"cost_vs_ro,,{_fmt(report.cost_vs_ro)}"]
    for key, value in sorted((report.seeds or {}).items()):
        lines.append(f"seed,{key},{value}")
    for key, value in sorted((report.solve_stats or {}).items()):
        lines.append(f"solve,{key},{_fmt(value)}")
    for name, rate in zip(report.row_names, report.per_row_rates):
        lines.append(f"per_row,{name},{rate:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_state_csvs(bus_path, branch_path, case, state, digest):
    """Operating point as one bus table and one branch table."""
    lines = [f"# config={digest}",
             "bus,id,kind,p_pu,q_pu,vmag_pu,theta_rad"]
    vmag = np.sqrt(state.v)
    for i in range(case.n_bus):
        lines.append(
            f"{i},{case.bus_ids[i]},{case.bus_kind[i]},{state.p[i]:.12g},"
            f"{state.q[i]:.12g},{vmag[i]:.12g},{state.theta[i]:.12g}")
    with open(bus_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    n_br = case.n_branch
    lines = [f"# config={digest}",
             "branch,from_bus,to_bus,p_from_pu,p_to_pu"]
    for b in range(n_br):
        lines.append(
            f"{b},{case.bus_ids[case.br_from[b]]},"
            f"{case.bus_ids[case.br_to[b]]},"
            f"{state.ell[b]:.12g},{state.ell[n_br + b]:.12g}")
    with open(branch_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trace_csv(path, result, digest):
    """Outer-iteration trail: step, state distance, selection objective."""
    lines = [f"# config={digest}", "t,d,objective"]
    for t, (d, obj) in enumerate(zip(result.d_history, result.obj_history),
                                 start=1):
        lines.append(f"{t},{d:.12g},{obj:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    cfg = _read_config(args.config, args.set or ())
    if args.forecasts is not None:
        if args.zeta is None or args.rho is None:
            raise CliError("--forecasts needs --zeta and --rho as well")
        spec = GaussianSpec(forecasts=np.asarray(args.forecasts),
                            zeta=args.zeta, rho=args.rho)
        labels = None
    else:
        if args.config is None:
            raise CliError("scenario gen needs --config or explicit "
                           "--forecasts/--zeta/--rho")
        case = _build_case(cfg)
        fleet = _build_fleet(cfg, case)
        spec = _build_spec(cfg, fleet)
        labels = [f"bus{case.bus_ids[b]}" for b in fleet.vre_buses]
    sset = sample(spec, args.s, args.seed)
    outdir = _output_dir(cfg)
    name = args.out or f"scenarios_s{args.s}_seed{args.seed}.csv"
    path = os.path.join(outdir, name)
    save_csv(sset, path, labels)
    print(f"wrote {path} (s={sset.s}, n_vre={sset.n_vre}, "
          f"digest={sset.spec_digest})")
    return EXIT_OK


def cmd_scenario_stats(args):
    sset = load_csv(args.file)
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
    if args.k is not None:
        eps, _ = optimal_epsilon(args.k, args.s)
        print(f"{eps:.6g}")
        return EXIT_OK
    try:
        k_values = _parse_k_values(args.k_range)
    except ValueError as exc:
        raise CliError(f"--k-range: {exc}") from exc
    lines = ["k,epsilon_star,bound"]
    for k in k_values:
        eps, bound = optimal_epsilon(k, args.s)
        lines.append(f"{k},{eps:.12g},{bound:.12g}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ambiguity_k(args):
    k = k_for(args.eps, args.radius, args.s)
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


def _report_ro(cfg):
    return _get_typed(cfg, "solve", "report_ro", _to_bool, True)


def _solve_common(args):
    """Shared setup for solve dc / solve ac and sweep."""
    cfg = _read_config(args.config, args.set or ())
    case = _build_case(cfg)
    fleet = _build_fleet(cfg, case)
    spec = _build_spec(cfg, fleet)
    train = _require_set(cfg, "train", spec)
    test = _require_set(cfg, "test", spec)
    ro_set = _load_set(cfg, "ro", spec)
    outdir = _output_dir(cfg)
    include_slack = _get_typed(cfg, "solve", "include_slack_rows",
                               _to_bool, False)
    options = _solver_options(cfg)
    return cfg, case, fleet, train, test, ro_set, outdir, include_slack, \
        options


def _config_model(cfg):
    """solve.model for sweep and eval: dc (the default) or ac."""
    model = _get(cfg, "solve", "model", "dc")
    if model not in ("dc", "ac"):
        raise CliError(f"config key solve.model: must be dc or ac, "
                       f"got {model!r}")
    return model


def _seed_fields(train, test):
    return {"train": train.seed, "test": test.seed}


def cmd_solve(args):
    model = args.model
    (cfg, case, fleet, train, test, ro_set, outdir, include_slack,
     options) = _solve_common(args)
    prefix = _prefix(cfg, case, model)
    log_path, handler = _attach_log_file(outdir, prefix)
    try:
        params = _choose_params(cfg, train.s)
        report_ro = _report_ro(cfg)
        ro_field = ({"ro": (ro_set.s, ro_set.seed, ro_set.spec_digest)}
                    if report_ro and ro_set is not None else {})
        digest = config_digest(
            case=case.name, model=model, k=params.k, s=train.s,
            buses=tuple(fleet.vre_buses.tolist()),
            forecasts=tuple(fleet.forecasts.tolist()), gamma=fleet.gamma,
            train_seed=train.seed, train_digest=train.spec_digest,
            test_seed=test.seed, test_digest=test.spec_digest,
            include_slack_rows=include_slack, **ro_field)
        log.info("case %s: %d buses, %d generators, %d branches",
                 case.name, case.n_bus, case.n_gen, case.n_branch)
        log.info("enforcing k = %d of S = %d scenarios "
                 "(epsilon* = %.6g, certified margin %.6g)",
                 params.k, params.s, params.epsilon, params.bound)
        log.info("config digest %s", digest)

        if model == "dc":
            code = _solve_dc(case, fleet, train, test, ro_set, params,
                             options, include_slack, outdir, prefix, digest,
                             report_ro=report_ro)
        else:
            code = _solve_ac(case, fleet, train, test, ro_set, params,
                             options, include_slack, outdir, prefix, digest,
                             report_ro=report_ro)
        log.info("log written to %s", log_path)
        return code
    finally:
        log.removeHandler(handler)
        handler.close()


def _solve_dc(case, fleet, train, test, ro_set, params, options,
              include_slack, outdir, prefix, digest, *, report_ro):
    sol, cc = solve_dc_selection(case, fleet, train, params.k,
                                 options=options,
                                 include_slack_rows=include_slack)
    log.info("selection solve: %s after %d nodes / %d subproblem solves",
             sol.status, sol.nodes, sol.qp_count)
    log.debug("solve wall time %.2f s", sol.wall_time)
    if sol.status != OPTIMAL:
        log.info("no dispatch written (status %s)", sol.status)
        return _exit_code_for(sol.status)

    cost_vs_ro = np.nan
    if report_ro:
        ro = ro_baseline(case, fleet, ro_set if ro_set is not None else train,
                         cc=cc)
        cost_vs_ro = sol.objective / ro.objective
        log.info("robust baseline cost %.6g; cost ratio %.6g",
                 ro.objective, cost_vs_ro)

    report = violation_frequency(
        sol.x_star, test, DcEvaluator(cc), cost=sol.objective,
        cost_vs_ro=cost_vs_ro,
        solve_stats={"nodes": sol.nodes, "qp_count": sol.qp_count,
                     "gap": sol.gap},
        seeds=_seed_fields(train, test), config_digest=digest)
    log.info("cost %.6g; joint violation %.6g on %d test scenarios "
             "(certified epsilon* %.6g)", sol.objective,
             report.joint_violation_rate, test.s, params.epsilon)

    sol_path = os.path.join(outdir, f"{prefix}_solution.csv")
    rep_path = os.path.join(outdir, f"{prefix}_report.csv")
    _write_solution_csv(sol_path, case, sol.x_star, digest,
                        cost=sol.objective, status=sol.status)
    _write_report_csv(rep_path, report)
    log.info("wrote %s and %s", sol_path, rep_path)
    return EXIT_OK


def _log_newton_failures(evaluator):
    """Name the test scenarios whose AC response did not solve, if any."""
    if evaluator.failed.size:
        log.info("Newton failed on %d of %d test scenarios (indices %s)",
                 evaluator.failed.size, evaluator.iterations.size,
                 " ".join(str(j) for j in evaluator.failed))


def _solve_ac(case, fleet, train, test, ro_set, params, options,
              include_slack, outdir, prefix, digest, *, report_ro):
    try:
        result = fixed_point_solve(case, fleet, train, params,
                                   options=options,
                                   include_slack_rows=include_slack)
    except FixedPointError as exc:
        log.info("alternating solve failed: %s", exc)
        code = (EXIT_INFEASIBLE if INFEASIBLE in str(exc)
                else EXIT_NUMERICAL)
        return code
    sol = result.selection
    log.info("alternating solve converged in %d outer iterations "
             "(final step %.3g)", result.outer_iterations,
             result.d_history[-1])

    cost_vs_ro = np.nan
    if report_ro:
        driver = AcSweepDriver(case, fleet, options=options,
                               include_slack_rows=include_slack)
        ro = driver.robust(ro_set if ro_set is not None else train)
        cost_vs_ro = sol.objective / ro.objective
        log.info("robust baseline cost %.6g; cost ratio %.6g",
                 ro.objective, cost_vs_ro)

    evaluator = AcEvaluator(case, fleet, sol.x_star,
                            include_slack_rows=include_slack)
    report = violation_frequency(
        sol.x_star, test, evaluator,
        cost=sol.objective, cost_vs_ro=cost_vs_ro,
        solve_stats={"nodes": sol.nodes, "qp_count": sol.qp_count,
                     "outer_iterations": result.outer_iterations},
        seeds=_seed_fields(train, test), config_digest=digest)
    _log_newton_failures(evaluator)
    log.info("cost %.6g; joint violation %.6g on %d test scenarios "
             "(certified epsilon* %.6g)", sol.objective,
             report.joint_violation_rate, test.s, params.epsilon)

    sol_path = os.path.join(outdir, f"{prefix}_solution.csv")
    rep_path = os.path.join(outdir, f"{prefix}_report.csv")
    bus_path = os.path.join(outdir, f"{prefix}_state_bus.csv")
    br_path = os.path.join(outdir, f"{prefix}_state_branch.csv")
    trace_path = os.path.join(outdir, f"{prefix}_trace.csv")
    _write_solution_csv(sol_path, case, sol.x_star, digest,
                        cost=sol.objective, status=sol.status)
    _write_report_csv(rep_path, report)
    _write_state_csvs(bus_path, br_path, case, result.state, digest)
    _write_trace_csv(trace_path, result, digest)
    log.info("wrote %s, %s, %s, %s, %s",
             sol_path, rep_path, bus_path, br_path, trace_path)
    return EXIT_OK


def cmd_sweep(args):
    (cfg, case, fleet, train, test, ro_set, outdir, include_slack,
     options) = _solve_common(args)
    model = _config_model(cfg)
    raw = _get(cfg, "sweep", "k_values")
    if raw is None:
        raise CliError("config key sweep.k_values is required")
    try:
        k_values = _parse_k_values(raw)
    except ValueError as exc:
        raise CliError(f"config key sweep.k_values: {exc}") from exc
    record_time = _get_typed(cfg, "sweep", "record_time", _to_bool, True)

    prefix = _prefix(cfg, case, model)
    log_path, handler = _attach_log_file(outdir, prefix)
    try:
        csv_path = os.path.join(outdir, f"{prefix}_sweep.csv")
        svg_path = os.path.join(outdir, f"{prefix}_sweep.svg")
        try:
            rows, digest = sweep_k(
                case, fleet, train, test, k_values, model,
                ro_set=ro_set, options=options,
                include_slack_rows=include_slack, record_time=record_time,
                csv_path=csv_path, svg_path=svg_path)
        except ValueError as exc:
            raise CliError(f"config key sweep.k_values: {exc}") from exc
        log.info("config digest %s", digest)
        errors = 0
        for row in rows:
            if row["status"] == OPTIMAL:
                log.info("k=%d epsilon*=%.6g cost=%.6g ratio=%.6g "
                         "violation=%.6g", row["k"], row["epsilon_star"],
                         row["cost"], row["cost_vs_ro"],
                         row["joint_violation"])
            else:
                errors += 1
                log.info("k=%d epsilon*=%.6g status=%s", row["k"],
                         row["epsilon_star"], row["status"])
        log.info("wrote %s and %s (%d rows, %d failed)",
                 csv_path, svg_path, len(rows), errors)
        log.info("log written to %s", log_path)
        return EXIT_OK
    finally:
        log.removeHandler(handler)
        handler.close()


def cmd_eval(args):
    cfg = _read_config(args.config, args.set or ())
    case = _build_case(cfg)
    fleet = _build_fleet(cfg, case)
    spec = _build_spec(cfg, fleet)
    test = _require_set(cfg, "test", spec)
    outdir = _output_dir(cfg)
    model = _config_model(cfg)
    include_slack = _get_typed(cfg, "solve", "include_slack_rows",
                               _to_bool, False)
    if not os.path.isfile(args.solution):
        raise CliError(f"solution file not found: {args.solution}")
    dispatch = _read_solution_csv(args.solution)
    if dispatch.size != case.n_gen:
        raise CliError(f"solution has {dispatch.size} generators, case "
                       f"{case.name} has {case.n_gen}")
    cost = make_cost(case).value(dispatch)
    digest = config_digest(
        case=case.name, model=model, solution=os.path.basename(args.solution),
        test_seed=test.seed, test_digest=test.spec_digest,
        include_slack_rows=include_slack)
    if model == "ac":
        evaluator = AcEvaluator(case, fleet, dispatch,
                                include_slack_rows=include_slack)
    else:
        evaluator = DcEvaluator(assemble_cc_system(
            case, fleet, include_slack_rows=include_slack))
    report = violation_frequency(dispatch, test, evaluator, cost=cost,
                                 seeds={"test": test.seed},
                                 config_digest=digest)
    if model == "ac":
        _log_newton_failures(evaluator)
    rep_path = os.path.join(outdir, f"{_prefix(cfg, case, model)}_eval.csv")
    _write_report_csv(rep_path, report)
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
        "k", help="enforced count certified for (epsilon, radius)")
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
