"""Set-up probe: a fresh interpreter imports ``curvsol.cli``, builds one
workload's seeded inputs and references and prints ``ready``; then it prints
the median time of the calibration kernel in this process, and exits.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times it from process start to the ``ready`` line.
"""

import statistics
import sys

import env

env.pin_threads()
env.import_curvsol()
import curvsol.cli  # noqa: E402,F401  (the import every CLI call pays)

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workloads.build(name, seed, env.ROOT / ".perfbench-run" / f"probe-{name}")
sys.stdout.write("ready\n")
sys.stdout.flush()

import run  # noqa: E402

times = [run.time_kernel() for _ in range(10)]
print(statistics.median(times[3:]))  # after three warm-up runs
