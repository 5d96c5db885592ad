"""Time one cold set-up in this fresh process: importing catchsim and
building a workload's base configs. Prints the seconds taken at reference
speed (see refspeed.py), then the wall-clock seconds.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import base_configs  # noqa: E402

t0 = perf_counter()
import catchsim  # noqa: E402,F401

base_configs(sys.argv[1])
wall = perf_counter() - t0

from refspeed import REF_S, reference_work  # noqa: E402

speed = statistics.fmean(REF_S / reference_work() for _ in range(7))
print(repr(wall * speed), repr(wall))
