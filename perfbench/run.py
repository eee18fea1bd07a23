"""Benchmark of the k-of-S dispatch pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload dc14-sweep --seed 0 --seconds 20 \\
        --trace 0

Closed loop: one caller, one request at a time, one process, BLAS fixed at
BLAS_THREADS threads.  A request is the whole pipeline of the workload's
config (see workloads.py).  With ``--trace 0`` the run times ``setup_s`` in
SETUP_PROBES fresh interpreters, makes one untimed warm-up request, then
times requests on fresh inputs for ``--seconds`` and reports medians.  With
``--trace 1`` it alternates untraced and traced requests on the seed's
first inputs and reports the per-layer metrics of tracing.py plus the tracing
overhead.  Every dispatch is checked (workloads.check_request); the last
line of stdout is the JSON result, details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import workloads  # noqa: E402  (imports numpy and ccopf)
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_REQUESTS = 3  # timed requests per run, however short --seconds is
PROBE_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "score_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})


def environment():
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.REPO,
            capture_output=True, text=True, timeout=10, check=True,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=str(workloads.REPO.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy),
            "blas_threads": BLAS_THREADS}


def setup_times(workload, seed):
    """Set-up time of the seed's first inputs, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


class Loop:
    """Runs requests and keeps the correctness tally."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.plan = workloads.read_plan(workload)
        self.seed = seed
        self.reference = (workloads.load_reference(workload) if seed == 0
                          else None)
        self.outdir = workloads.OUT / workload
        self.seeds = {}  # instance -> derived seeds
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (instance, kind, k, reason)

    def request(self, instance, tracer=None):
        seeds = workloads.derived_seeds(self.plan, self.seed, instance)
        self.seeds[instance] = seeds
        spans = None
        if tracer is not None:
            tracer.install()
        try:
            req = workloads.run_request(self.plan, seeds, self.outdir)
        finally:
            if tracer is not None:
                spans = tracer.uninstall()
        workloads.check_request(req, self.reference if instance == 0
                                else None)
        for s in req.solves:
            self.attempted += 1
            self.failed += bool(s.failures)
            self.failures += [(instance, s.kind, s.k, f) for f in s.failures]
        return req, spans


def _answers(req):
    return [(s.status, s.objective, None if s.x is None else s.x.tobytes())
            for s in req.solves]


def _median(requests, phase):
    return statistics.median(times[phase] for times in requests)


def end_to_end(loop, seconds):
    setup = setup_times(loop.workload, loop.seed)
    loop.request(0)  # warm-up: imports and first-call costs are in setup_s
    times = []
    deadline = time.perf_counter() + seconds
    instance = 1
    while len(times) < MIN_REQUESTS or time.perf_counter() < deadline:
        req, _ = loop.request(instance)
        times.append(req.times)
        instance += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": _median(times, "wall"),
               "setup_s": statistics.median(setup),
               "solve_s": _median(times, "solve"),
               "score_s": _median(times, "score"), "peak_rss_mb": rss_mb}
    return metrics, {"setup_probes": setup, "requests": times}, []


def per_layer(loop, seconds):
    """Alternate untraced and traced requests on the seed's first inputs."""
    tracer = Tracer(extra_modules=[workloads])
    warm, _ = loop.request(0)
    expected = _answers(warm)
    untraced, traced, layers, spans_log, problems = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REQUESTS or time.perf_counter() < deadline:
        for tracer_or_none, sink in ((None, untraced), (tracer, traced)):
            req, spans = loop.request(0, tracer_or_none)
            sink.append(req.times["wall"])
            changed = sum(a != b for a, b in zip(_answers(req), expected))
            if changed:
                loop.failed += changed
                problems.append(f"{changed} solves gave another answer on "
                                "a repeat of the same inputs")
            if spans is not None:
                layers.append(layer_metrics(spans))
                spans_log.append(spans)
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} did not repeat: {values}")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    raw = {"untraced_wall": untraced, "traced_wall": traced,
           "layers": layers, "spans": spans_log}
    return metrics, raw, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    loop = Loop(args.workload, args.seed)
    measure, units = ((per_layer, PER_LAYER) if args.trace
                      else (end_to_end, END_TO_END))
    metrics, raw, problems = measure(loop, args.seconds)

    for instance, kind, k, reason in loop.failures:
        print(f"FAILED request {instance} {kind} k={k}: {reason}",
              file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(f"{'fail_rate':45s} {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} solves)")
    print(f"seeds of request 0: {loop.seeds[0]}")

    loop.outdir.mkdir(parents=True, exist_ok=True)
    detail = loop.outdir / f"seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": metrics,
         "seeds": loop.seeds, "failures": loop.failures,
         "problems": problems, "raw": raw}))
    print(json.dumps({
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
