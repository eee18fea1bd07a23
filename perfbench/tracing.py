"""Spans around every public ``ccopf`` function, installed from outside.

``install`` wraps each public module-level function of each ``ccopf``
module, plus HiGHS ``linprog`` as ``scenario_mip`` calls it, and puts the
wrapper at every import site: any module attribute, in ``ccopf`` or in the
extra modules given, that is the original function object.  Wrapping only
the defining module would miss ``from .scenario_mip import qp_solve`` in
``evaluation``, ``ac_model`` and ``dc_model``, and with it the robust
baseline and the AC deterministic-stage QPs.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list or -1, and ``attrs`` holds the counts
read from the call's arguments and result (see ``_observers``).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
import time

import workloads  # noqa: F401  (puts the repository's src/ on sys.path)

import ccopf  # noqa: E402
from ccopf import scenario_mip  # noqa: E402


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _observers():
    """span name -> f(arguments getter, result) -> attrs."""
    return {
        "scenario_mip.qp_solve":
            lambda arg, r: {"rows": arg()["system"].a_ineq.shape[0]},
        "scenario_mip.solve_selection":
            lambda arg, r: {"nodes": r.nodes, "qp_count": r.qp_count,
                            "objective": r.objective},
        "scenario_mip.greedy_incumbent":
            lambda arg, r: {"value": None if r is None else r[2]},
        "scenarios.sample": lambda arg, r: {"draws": r.s},
        "evaluation.violation_frequency":
            lambda arg, r: {"scenarios": arg()["test_set"].s},
        "ac_model.fixed_point_solve":
            lambda arg, r: {"outer": r.outer_iterations},
        "ac_model.pf_solve":
            lambda arg, r: {"iterations": r.iterations,
                            "failed": not r.solved},
    }


class Tracer:
    """Installs the wrappers; each installation records into a new list."""

    def __init__(self, extra_modules=()):
        self.modules = [importlib.import_module(f"ccopf.{m.name}")
                        for m in pkgutil.iter_modules(ccopf.__path__)]
        self.extra_modules = list(extra_modules)
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _public_functions(self):
        found = {}
        for mod in self.modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[id(obj)] = (obj, f"{short}.{name}")
        found[id(scenario_mip.linprog)] = (scenario_mip.linprog,
                                           "highs.linprog")
        return found

    def _wrap(self, fn, name, observe):
        spans, stack = self.spans, self._stack
        args_of = _bound(fn) if observe else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe:
                span[4] = observe(lambda: args_of(args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every import site; spans go to a fresh ``self.spans``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.spans = []
        observers = _observers()
        wrappers = {key: (fn, self._wrap(fn, name, observers.get(name)))
                    for key, (fn, name) in self._public_functions().items()}
        for mod in self.modules + self.extra_modules:
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        """Restore the originals and return the spans recorded."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return self.spans

    def import_sites(self, name):
        """Modules whose attribute `name` is currently a traced wrapper."""
        return sorted(mod.__name__ for mod in self.modules + self.extra_modules
                      if hasattr(getattr(mod, name, None), "__wrapped__"))


# --- per-layer metrics -----------------------------------------------------

# name -> unit; the deterministic ones (every unit but "s") must repeat
# exactly on identical inputs.
LAYER_METRICS = {
    "case_io.load_case.s": "s",
    "scenarios.sample.s": "s",
    "scenarios.sample.draws": "count",
    "dc_model.build_ptdf.s": "s",
    "dc_model.assemble_cc_system.s": "s",
    "scenario_mip.solve_selection.calls": "count",
    "scenario_mip.solve_selection.s": "s",
    "scenario_mip.nodes": "count",
    "scenario_mip.qp_solve.calls": "count",
    "scenario_mip.qp_solve.s": "s",
    "scenario_mip.qp_solve.rows_mean": "rows",
    "scenario_mip.reported_qp_count": "count",
    "scenario_mip.greedy_incumbent.calls": "count",
    "scenario_mip.greedy_incumbent.s": "s",
    "scenario_mip.greedy_incumbent.qp_calls": "count",
    "scenario_mip.greedy_hit_rate": "ratio",
    "highs.linprog.calls": "count",
    "highs.linprog.s": "s",
    "evaluation.ro_baseline.s": "s",
    "evaluation.violation_frequency.calls": "count",
    "evaluation.violation_frequency.s": "s",
    "evaluation.violation_frequency.scenarios": "count",
    "evaluation.write.s": "s",
    "ac_model.fixed_point_solve.s": "s",
    "ac_model.outer_iterations": "count",
    "ac_model.linearize_cc_system.calls": "count",
    "ac_model.linearize_cc_system.s": "s",
    "ac_model.response_jacobian.s": "s",
    "ac_model.pf_solve.calls": "count",
    "ac_model.pf_solve.s": "s",
    "ac_model.newton_iterations": "count",
    "ac_model.newton_failures": "count",
    "ac_model.respond.s": "s",
}


def layer_metrics(spans):
    """Per-layer values of one request from its spans."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(*names):
        return sum(s[2] - s[1] for n in names for s in by_name.get(n, ()))

    def observed(name):  # spans of calls that returned
        return [s for s in by_name.get(name, ()) if s[4] is not None]

    def total(name, key):
        return sum(s[4][key] for s in observed(name))

    qps = by_name.get("scenario_mip.qp_solve", [])
    rows = [s[4]["rows"] for s in observed("scenario_mip.qp_solve")]
    greedy = observed("scenario_mip.greedy_incumbent")
    greedy_ids = {i for i, s in enumerate(spans)
                  if s[0] == "scenario_mip.greedy_incumbent"}
    # A solve's greedy warm start is its child span; k = S solves have none.
    hits = tried = 0
    for g in greedy:
        solve = spans[g[3]]
        if solve[0] == "scenario_mip.solve_selection" and \
                solve[4] is not None and g[4]["value"] is not None:
            tried += 1
            best = solve[4]["objective"]
            hits += abs(g[4]["value"] - best) <= 1e-9 * max(1.0, abs(best))
    return {
        "case_io.load_case.s": seconds("case_io.load_case"),
        "scenarios.sample.s": seconds("scenarios.sample"),
        "scenarios.sample.draws": total("scenarios.sample", "draws"),
        "dc_model.build_ptdf.s": seconds("dc_model.build_ptdf"),
        "dc_model.assemble_cc_system.s":
            seconds("dc_model.assemble_cc_system"),
        "scenario_mip.solve_selection.calls":
            calls("scenario_mip.solve_selection"),
        "scenario_mip.solve_selection.s":
            seconds("scenario_mip.solve_selection"),
        "scenario_mip.nodes": total("scenario_mip.solve_selection", "nodes"),
        "scenario_mip.qp_solve.calls": len(qps),
        "scenario_mip.qp_solve.s": seconds("scenario_mip.qp_solve"),
        "scenario_mip.qp_solve.rows_mean":
            statistics.fmean(rows) if rows else 0.0,
        "scenario_mip.reported_qp_count":
            total("scenario_mip.solve_selection", "qp_count"),
        "scenario_mip.greedy_incumbent.calls":
            calls("scenario_mip.greedy_incumbent"),
        "scenario_mip.greedy_incumbent.s":
            seconds("scenario_mip.greedy_incumbent"),
        "scenario_mip.greedy_incumbent.qp_calls":
            sum(s[3] in greedy_ids for s in qps),
        "scenario_mip.greedy_hit_rate": hits / tried if tried else 0.0,
        "highs.linprog.calls": calls("highs.linprog"),
        "highs.linprog.s": seconds("highs.linprog"),
        "evaluation.ro_baseline.s": seconds("evaluation.ro_baseline"),
        "evaluation.violation_frequency.calls":
            calls("evaluation.violation_frequency"),
        "evaluation.violation_frequency.s":
            seconds("evaluation.violation_frequency"),
        "evaluation.violation_frequency.scenarios":
            total("evaluation.violation_frequency", "scenarios"),
        "evaluation.write.s": seconds("evaluation.write_sweep_csv",
                                      "evaluation.write_sweep_svg"),
        "ac_model.fixed_point_solve.s": seconds("ac_model.fixed_point_solve"),
        "ac_model.outer_iterations":
            total("ac_model.fixed_point_solve", "outer"),
        "ac_model.linearize_cc_system.calls":
            calls("ac_model.linearize_cc_system"),
        "ac_model.linearize_cc_system.s":
            seconds("ac_model.linearize_cc_system"),
        "ac_model.response_jacobian.s": seconds("ac_model.response_jacobian"),
        "ac_model.pf_solve.calls": calls("ac_model.pf_solve"),
        "ac_model.pf_solve.s": seconds("ac_model.pf_solve"),
        "ac_model.newton_iterations": total("ac_model.pf_solve", "iterations"),
        "ac_model.newton_failures": total("ac_model.pf_solve", "failed"),
        "ac_model.respond.s": seconds("ac_model.respond"),
    }
