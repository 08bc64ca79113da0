"""Print the seconds a fresh interpreter takes to import deltareg and load a workload.

    python3 bench/setup_probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

import workloads  # noqa: E402

workloads.load(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - _START))
