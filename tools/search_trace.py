#!/usr/bin/env python3
"""Print the selection search for every k of a config's sweep.

    python3 tools/search_trace.py configs/sweep300.ini

Solves each k of sweep.k_values (distinct, ascending, as `ccopf sweep`
takes them) with the config's case, fleet, training set, model, row set
and solver options, and prints one CSV line per k:

    k,status,nodes,qp_count,iterations,relaxed

where iterations sums the active-set iterations of the counted QPs and
relaxed lists the relaxed training scenarios, space-separated.  Nothing
is scored and no file is written, so the output pins the branch-and-
bound search and the QP engine's work alone; tests/data/sweep300_search.csv and
tests/data/sweep14_search.csv are this script's output for
configs/sweep300.ini and configs/sweep14.ini.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccopf.cli import (  # noqa: E402
    CliError,
    _resolve_run,
    _sweep_k_values,
)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: search_trace.py CONFIG")
    try:
        run = _resolve_run(argv[0], sets=("train",))
        train = run.sets["train"]
        k_values = _sweep_k_values(run.cfg.get("sweep.k_values", []),
                                   train.s)
    except (CliError, ValueError) as exc:
        sys.exit(f"search_trace: {exc}")
    print("k,status,nodes,qp_count,iterations,relaxed")
    for k in k_values:
        sol, _ = run.model.solve(train, k)
        relaxed = ([] if sol.z_star is None
                   else np.flatnonzero(sol.z_star).tolist())
        print(f"{k},{sol.status},{sol.nodes},{sol.qp_count},"
              f"{sol.iterations},{' '.join(map(str, relaxed))}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
