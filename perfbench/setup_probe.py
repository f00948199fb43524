"""Time the set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports tatehk and builds the first pass's JobSpecs and fields, then prints
the seconds taken since the interpreter started running this file, and the
seconds of the host-speed reference loop run just after, in this process.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    package = workloads.load_package()
    workloads.plan_pass(package, sys.argv[1], int(sys.argv[2]), 0)
    seconds = time.perf_counter() - T0
    import hostspeed
    print(seconds, hostspeed.reference_seconds(5))
