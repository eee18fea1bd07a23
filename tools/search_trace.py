#!/usr/bin/env python3
"""Print the selection search for every k of a config's sweep.

    python3 tools/search_trace.py configs/sweep300.ini

Solves each k of sweep.k_values (distinct, ascending, as `ccopf sweep`
takes them) with the config's case, fleet, training set, model, row set
and solver options, and prints one CSV line per k:

    k,status,nodes,qp_count,relaxed

where relaxed lists the relaxed training scenarios, space-separated.
Nothing is scored and no file is written, so the output pins the branch-
and-bound search alone; tests/data/sweep300_search.csv is this script's
output for configs/sweep300.ini.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccopf.cli import (  # noqa: E402
    CliError,
    _build_case,
    _build_fleet,
    _build_spec,
    _config_model,
    _get,
    _get_typed,
    _network_model,
    _parse_k_values,
    _read_config,
    _require_set,
    _solver_options,
    _sweep_k_values,
    _to_bool,
)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: search_trace.py CONFIG")
    try:
        cfg = _read_config(argv[0])
        case = _build_case(cfg)
        fleet = _build_fleet(cfg, case)
        train = _require_set(cfg, "train", _build_spec(cfg, fleet))
        model = _network_model(
            _config_model(cfg), case, fleet, options=_solver_options(cfg),
            include_slack_rows=_get_typed(cfg, "solve", "include_slack_rows",
                                          _to_bool, False))
        k_values = _sweep_k_values(
            _parse_k_values(_get(cfg, "sweep", "k_values") or ""), train.s)
    except (CliError, ValueError) as exc:
        sys.exit(f"search_trace: {exc}")
    print("k,status,nodes,qp_count,relaxed")
    for k in k_values:
        sol, _ = model.solve(train, k)
        relaxed = ([] if sol.z_star is None
                   else np.flatnonzero(sol.z_star).tolist())
        print(f"{k},{sol.status},{sol.nodes},{sol.qp_count},"
              f"{' '.join(map(str, relaxed))}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
