"""How fast this machine runs right now, from a fixed reference loop.

The benchmark runs on a few cores of a shared host, and a neighbour's load
slows every instruction by up to 1.8 times, process CPU time included, in
spells that last from a fraction of a second to many minutes.  The
reference loop is plain ``Fraction`` arithmetic and uses no cuntzcalc code,
so no change to the program changes its time.  Timed every ``SAMPLE_S``
seconds through a pass, it tells how much the neighbours slowed each
request, and a request's time at the reference speed, at which the loop
takes ``REFERENCE_S``, is its measured time times ``REFERENCE_S`` over the
loop's mean time within ``WINDOW_S`` seconds of the request.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# the loop's time on the host with no neighbour load (Python 3.11, 2.1 GHz vCPU)
REFERENCE_S = 0.0015
SAMPLE_S = 0.05
WINDOW_S = 0.5


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter() - start


class SpeedLog:
    """Reference-loop samples through one pass, at least ``SAMPLE_S`` apart."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.durations: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= SAMPLE_S:
            duration = reference_s()
            self.times.append(now + duration / 2)
            self.durations.append(duration)

    def scale(self, start: float, end: float) -> float:
        """Factor from a time measured in [start, end] to the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
