"""Set-up time in this fresh interpreter: from just before the first ccopf
import until the seed's first inputs are ready.  Prints seconds.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (first import of numpy and ccopf)

plan = workloads.read_plan(sys.argv[1])
workloads.build_inputs(plan, workloads.derived_seeds(plan, int(sys.argv[2]), 0))
print(time.perf_counter() - t0)
