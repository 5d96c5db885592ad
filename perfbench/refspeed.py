"""Host-speed reference for the benchmark.

reference_work() is a fixed computation with the mix of a control loop:
3-vector numpy operations, Python float arithmetic, small objects and
CSV-style formatting. Timing it next to the measured work tells how fast
the host runs at that moment; a wall time t is reported at reference speed
as t * REF_S / (reference_work's time), with speeds averaged over the
samples around t. REF_S is about reference_work's time on a 2-core Xeon VM
at the faster of its two speed levels (~0.7 ms; ~1.3 ms at the slower), so
figures at reference speed read like wall clock at that level.

The reference must stay fixed: changing it rescales every timed metric.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_ITERS = 250  # loop length of reference_work
REF_S = 0.0007  # reference speed: the host speed at which reference_work takes this long (s)


class _Record:
    __slots__ = ("x", "y", "t")

    def __init__(self, x: float, y: float, t: float) -> None:
        self.x, self.y, self.t = x, y, t


def reference_work() -> float:
    """Run the fixed reference computation once; return its wall time (s)."""
    t0 = perf_counter()
    v = np.array([0.3, -0.2, 0.1])
    step = np.array([0.001, 0.0, -0.001])
    acc = 0.0
    latest: dict[int, _Record] = {}
    rows = []
    for i in range(REF_ITERS):
        v = v * 0.999 + step
        rec = _Record(float(v[0]), float(v[1]), i * 1e-3)
        acc += math.hypot(rec.x, rec.y) + rec.t
        latest[i % 17] = rec
        rows.append(f"{rec.x:.6g},{acc:.3f}")
    elapsed = perf_counter() - t0
    if not math.isfinite(acc) or len(rows) != REF_ITERS:
        raise ArithmeticError("reference_work went wrong")
    return elapsed
