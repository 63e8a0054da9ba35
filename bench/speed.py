"""Reference seconds: task times corrected for the machine's current speed.

On a shared machine the same pure-Python code runs up to 1.7 times slower
at some moments than at others, and the speed changes within a second.  A
fixed reference loop slows down in step with the package's code (the ratio
of the two stays within a few per cent while each swings by tens of per
cent), so each task's time is multiplied by REFERENCE_S over the loop's
mean time while the task ran.  A time in reference seconds reads as seconds
on a machine that runs the loop in exactly REFERENCE_S.

While a Speedometer is active, a timer signal takes a sample every
INTERVAL_S, so tasks of any length have samples taken while they ran; the
sampling time inside a task is subtracted from it.  A sample runs the loop
twice and keeps the second time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

# about the loop's time on the shared 2-vCPU Xeon virtual machine where the
# benchmark was defined (Python 3.11)
REFERENCE_S = 0.001
INTERVAL_S = 0.05


def reference_loop():
    """Fixed work mixing tuples, modular arithmetic, a dict, short recursion
    and indexed list updates, as the package's walks and polynomial
    arithmetic do.  The garbage collector is held off while it runs: a
    collection triggered by its allocations would scan the package's live
    objects and be charged to the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loop_body()
    finally:
        if enabled:
            gc.enable()


def _descend(depth):
    return 0 if depth == 0 else 1 + _descend(depth - 1)


def _loop_body():
    acc = 0
    seen = {}
    row = [0] * 16
    for i in range(240):
        t = tuple((i * k) % 7 for k in range(6))
        acc = (acc + sum(t) * 31 + _descend(4)) % 1000003
        seen[t] = seen.get(t, 0) + 1
        for j in range(4):
            row[(i + j) & 15] = (row[(i + j) & 15] + i * j) % 5
    return acc + len(seen) + sum(row)


class Speedometer:
    """Samples the reference loop from a timer signal while active."""

    def __init__(self):
        self.starts = []       # sample start times, ascending
        self.costs = []        # time each sample took, both loops
        self.seconds = []      # time of the second loop

    def _sample(self, signum=None, frame=None):
        # the first loop refills the caches the interrupted code evicted
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        reference_loop()
        t2 = perf_counter()
        self.starts.append(t0)
        self.costs.append(t2 - t0)
        self.seconds.append(t2 - t1)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less the sampling inside it, in reference
        seconds.  The loop's time is the mean of the samples inside the
        interval plus the nearest one on each side."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.costs[lo:hi]
        loop_s = statistics.fmean(self.seconds[max(lo - 1, 0):hi + 1])
        return (t1 - t0 - sum(inside)) * REFERENCE_S / loop_s
