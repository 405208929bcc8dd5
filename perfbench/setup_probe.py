"""Print the seconds a fresh process spends importing superverma and building
one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402  (the import is part of the time measured)

workloads.import_program()
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
