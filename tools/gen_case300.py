#!/usr/bin/env python3
"""Generate the synthetic 300-bus network shipped as data/case300s.m.

The file is fully deterministic (fixed RNG seed, fixed formatting), so
re-running this script reproduces it byte for byte.  Topology is a ring
over all 300 buses plus 60 seeded chords; 69 generators sit on evenly
spread buses; every non-generator bus carries load.  Branch ratings are
sized from the DC flows of two reference dispatches (capacity-
proportional and merit-order-weighted) with 80% headroom, so the unit
ranges and line limits admit robust dispatches with room to spare.

Run from the repository root:  python3 tools/gen_case300.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccopf.case_io import parse_matpower, to_network  # noqa: E402
from ccopf.dc_model import build_ptdf  # noqa: E402

SEED = 300
N_BUS = 300
N_GEN = 69
N_CHORD = 60
OUT = pathlib.Path(__file__).resolve().parents[1] / "src/ccopf/data/case300s.m"


def build():
    rng = np.random.default_rng(SEED)

    gen_rows = np.round(np.linspace(0, N_BUS - 1, N_GEN)).astype(int)
    assert np.unique(gen_rows).size == N_GEN
    is_gen_bus = np.zeros(N_BUS, dtype=bool)
    is_gen_bus[gen_rows] = True

    # --- loads: every non-generator bus, 30..120 MW with 15..35% reactive
    pd = np.zeros(N_BUS)
    qd = np.zeros(N_BUS)
    pq = ~is_gen_bus
    pd[pq] = np.round(rng.uniform(30.0, 120.0, pq.sum()), 1)
    qd[pq] = np.round(pd[pq] * rng.uniform(0.15, 0.35, pq.sum()), 1)

    # --- generators: capacities sized for ~40% reserve over total load
    p_max = np.round(rng.uniform(150.0, 500.0, N_GEN), 0)
    p_max *= max(1.0, 1.4 * pd.sum() / p_max.sum())
    p_max = np.round(p_max, 0)
    c2 = np.round(rng.uniform(0.005, 0.05, N_GEN), 4)
    c1 = np.round(rng.uniform(15.0, 40.0, N_GEN), 2)

    # --- branches: ring + deduplicated chords
    edges = [(i, (i + 1) % N_BUS) for i in range(N_BUS)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < N_BUS + N_CHORD:
        i = int(rng.integers(0, N_BUS))
        j = (i + int(rng.integers(5, 150))) % N_BUS
        key = frozenset((i, j))
        if key not in seen:
            seen.add(key)
            edges.append((i, j))
    x = np.empty(len(edges))
    x[:N_BUS] = rng.uniform(0.02, 0.06, N_BUS)
    x[N_BUS:] = rng.uniform(0.04, 0.12, N_CHORD)
    x = np.round(x, 4)
    r = np.round(x / 10.0, 5)

    # --- ratings from DC flows of two reference dispatches
    case = to_network(parse_matpower(render(pd, qd, gen_rows, p_max, c2, c1,
                                            edges, r, x, None)))
    phi = build_ptdf(case)
    total = pd.sum() / case.base_mva
    cap = p_max / case.base_mva
    merit = (1.0 / c1) * cap
    flows = []
    for weights in (cap, merit):
        inj = -pd / case.base_mva
        inj[gen_rows] += total * weights / weights.sum()
        flows.append(phi @ inj)
    envelope = np.abs(np.vstack(flows)).max(axis=0) * case.base_mva
    rate = np.maximum(np.ceil(envelope * 1.8 / 10.0) * 10.0, 120.0)

    return pd, qd, gen_rows, p_max, c2, c1, edges, r, x, rate


def render(pd, qd, gen_rows, p_max, c2, c1, edges, r, x, rate):
    lines = [
        "% Synthetic 300-bus test network (deterministic; see"
        " tools/gen_case300.py, seed 300).",
        "function mpc = case300s",
        "mpc.version = '2';",
        "mpc.baseMVA = 100;",
        "mpc.bus = [",
    ]
    is_gen_bus = np.zeros(N_BUS, dtype=bool)
    is_gen_bus[gen_rows] = True
    for b in range(N_BUS):
        kind = 3 if b == gen_rows[0] else (2 if is_gen_bus[b] else 1)
        lines.append(f" {b + 1} {kind} {pd[b]:.1f} {qd[b]:.1f}"
                     " 0 0 1 1.0 0 135 1 1.1 0.9;")
    lines.append("];")
    lines.append("mpc.gen = [")
    for g, b in enumerate(gen_rows):
        lines.append(f" {b + 1} 0 0 150 -150 1.0 100 1 {p_max[g]:.0f} 0"
                     + " 0" * 11 + ";")
    lines.append("];")
    lines.append("mpc.branch = [")
    for l, (i, j) in enumerate(edges):
        lim = "9900" if rate is None else f"{rate[l]:.0f}"
        lines.append(f" {i + 1} {j + 1} {r[l]:.5f} {x[l]:.4f} 0 {lim}"
                     " 0 0 0 0 1 -360 360;")
    lines.append("];")
    lines.append("mpc.gencost = [")
    for g in range(len(gen_rows)):
        lines.append(f" 2 0 0 3 {c2[g]:.4f} {c1[g]:.2f} 0;")
    lines.append("];")
    return "\n".join(lines) + "\n"


def main():
    parts = build()
    text = render(*parts)
    OUT.write_text(text, encoding="utf-8")
    case = to_network(parse_matpower(text))
    pd = parts[0]
    print(f"wrote {OUT}")
    print(f"buses={case.n_bus} gens={case.n_gen} branches={case.n_branch}")
    print(f"load={pd.sum():.0f} MW  capacity={case.p_max.sum() * 100:.0f} MW")


if __name__ == "__main__":
    main()
