"""One set-up sample, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <workload> <scratch dir>

Times importing tvselect plus the workload's warm-up call and prints the
seconds.  BLAS thread pinning comes from the environment run.py passes.
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tvselect  # noqa: E402,F401  (timed: part of set-up)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warm_up(sys.argv[2])
print(repr(time.perf_counter() - t0))
