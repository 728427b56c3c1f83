"""Time what a fresh interpreter pays before a workload can start.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports snbsde, builds the workload's preset and validates its config, then
prints the seconds this took.  Interpreter start-up itself is not counted.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import snbsde  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup_step(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - T0))
