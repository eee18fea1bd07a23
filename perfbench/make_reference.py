"""Regenerate reference.json from the committed results under out/.

The benchmark compares every solve made at a config's own seeds with
these numbers (relative tolerance, not byte equality).  Run from the
repository root after the committed results change:

    python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

from workloads import REFERENCE, REPO, WORKLOADS, read_plan

from ccopf.evaluation import read_sweep_csv


def _sweep_reference(name):
    rows = read_sweep_csv(REPO / "out" / f"{name}_sweep.csv")
    # every row shares one robust baseline: cost / cost_vs_ro
    ro_cost = rows[0]["cost"] / rows[0]["cost_vs_ro"]
    return {"source": f"out/{name}_sweep.csv", "ro_cost": ro_cost,
            "rows": {str(r["k"]): {"status": r["status"], "cost": r["cost"],
                                   "joint_violation": r["joint_violation"]}
                     for r in rows}}


def _solve_reference(name):
    out = REPO / "out"
    report, dispatch = {}, []
    for line in (out / f"{name}_report.csv").read_text().splitlines()[1:]:
        metric, _, value = line.split(",")
        if metric in ("cost", "joint_violation_rate"):
            report[metric] = float(value)
    solution = (out / f"{name}_solution.csv").read_text().splitlines()
    status = solution[1].split()[1].partition("=")[2]
    for line in solution[3:]:
        dispatch.append(float(line.split(",")[2]))
    return {"source": [f"out/{name}_report.csv", f"out/{name}_solution.csv"],
            "status": status, "cost": report["cost"],
            "joint_violation": report["joint_violation_rate"],
            "dispatch": dispatch}


def main():
    reference = {}
    for name, (config, _) in WORKLOADS.items():
        plan = read_plan(name)
        stem = Path(config).stem
        entry = (_sweep_reference(stem) if plan.model == "dc"
                 else _solve_reference(stem))
        entry["seeds"] = plan.seeds
        entry["test_s"] = plan.sizes["test"]
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
