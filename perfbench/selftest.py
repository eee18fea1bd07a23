"""Fast self-test of the benchmark harness (about 15 s).

    python3 perfbench/selftest.py

Checks that the tracer reaches every import site of the re-imported
public functions and restores them, and that a short run of dc14-sweep at
seed 0 (where the committed references apply) emits exactly the metrics
BENCHMARK.json declares, each with its unit, with every check passing.
Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
# Functions re-imported into other modules, and where they must be traced.
IMPORT_SITES = {
    "qp_solve": ("ccopf.scenario_mip", "ccopf.evaluation", "ccopf.ac_model",
                 "ccopf.dc_model"),
    "solve_selection": ("ccopf.scenario_mip", "ccopf.evaluation",
                        "ccopf.ac_model"),
    "ro_baseline": ("ccopf.evaluation", "ccopf.cli"),
    "violation_frequency": ("ccopf.evaluation", "ccopf.cli"),
    "assemble_cc_system": ("ccopf.dc_model", "ccopf.evaluation", "ccopf.cli"),
    "linprog": ("ccopf.scenario_mip",),
}


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def check_tracer():
    from ccopf import cli, evaluation

    original = evaluation.qp_solve
    tracer = Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        for name, sites in IMPORT_SITES.items():
            traced = tracer.import_sites(name)
            missing = sorted(set(sites) - set(traced))
            check(not missing, f"{name} not traced in {missing}")
        check("workloads" in tracer.import_sites("ro_baseline"),
              "the benchmark's own import of ro_baseline is not traced")
    finally:
        tracer.uninstall()
    check(evaluation.qp_solve is original and
          not hasattr(cli.ro_baseline, "__wrapped__"),
          "uninstall left a wrapper in place")


def check_run(trace, declared):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dc14-sweep",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    check(out.returncode == 0, f"trace {trace} run exited {out.returncode}:"
          f"\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"trace {trace} run: {result}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    check(emitted == declared,
          f"trace {trace} emitted {emitted}, BENCHMARK.json has {declared}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{name} is not a number")
    return result["metrics"]


def main():
    check_tracer()
    spec = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
    check_run(0, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    layers = check_run(1, {m["name"]: m["unit"] for m in spec["per_layer"]})
    value = {name: m["value"] for name, m in layers.items()}
    check(value["scenario_mip.solve_selection.calls"] == 11,
          "dc14-sweep should make one selection solve per k (11)")
    # The solver's qp_count leaves out the greedy incumbent's QPs, so the
    # traced count can only be larger.
    check(value["scenario_mip.qp_solve.calls"]
          >= value["scenario_mip.reported_qp_count"] > 0,
          "qp_solve calls fewer than the solver reports")
    print("selftest passed")


if __name__ == "__main__":
    main()
