"""Host-speed correction: op times at a fixed reference speed of the host.

The 2-vCPU host this benchmark was built on changes speed by up to ±30% in
phases that last from ten seconds to minutes (tables passes timed back to
back for ten minutes: 10-second medians of 0.71 to 1.35 times the overall
median).  A run of 36 s cannot average such phases out; the ten-run quartile
spread of raw pass times reached 0.28 on ``tables``.

So a fixed kernel of interpreter, numpy and ``scipy.special`` work, none of
it chiral_ldp code, runs between ops: once per ``INTERVAL_S`` that passed
since it last ran, up to ``NEIGHBOURS`` times in a row, so that a long op
has that many kernel runs right before and right after it.  An op's
latency is multiplied by ``REFERENCE_S`` over the median time of the
``2 * NEIGHBOURS`` kernel runs nearest to the op's start: that is the op's
time at the host speed at which the kernel takes ``REFERENCE_S``.  Over ten
minutes of ``tables`` passes with the kernel between ops, that cut the
quartile spread of 36-second windows from 0.118 to 0.050; over ten seeds of
``crosscheck``, whose long KS ops spend 40% of their time in page faults,
it cut the spread of ``wall_s`` from 0.150 to 0.039.  A change to the
library does not touch the kernel, so corrected times compare across
commits.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_right

import numpy as np
from scipy import special

__all__ = ["HostSpeed", "kernel", "REFERENCE_S", "INTERVAL_S", "NEIGHBOURS"]

# Median kernel time on the 2-vCPU Xeon host the benchmark was built on.
REFERENCE_S = 0.0106
INTERVAL_S = 0.25
NEIGHBOURS = 5

_V = np.linspace(0.0, 30.0, 12_000)
_X = np.linspace(0.1, 50.0, 12_000)


def kernel() -> float:
    """About 10 ms of the work chiral_ldp does: a Python loop, Bessel K, exp/log."""
    total = 0.0
    for i in range(60_000):
        total += i * 0.5
    total += float(np.sum(np.log(special.kve(_V, _X)) - _X))
    total += float(np.sum(np.exp(-np.cumsum(np.abs(np.sin(_X))))))
    return total


class HostSpeed:
    """Kernel times through a run, and the correction factor at any moment."""

    def __init__(self, timer=time.perf_counter, work=kernel):
        self._timer = timer
        self._work = work
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = self._timer()
        self._work()
        self.starts.append(start)
        self.seconds.append(self._timer() - start)

    def tick(self) -> None:
        """Sample once per ``INTERVAL_S`` since the last sample started, at
        most ``NEIGHBOURS`` times; ``NEIGHBOURS`` times on the first call."""
        due = NEIGHBOURS
        if self.starts:
            due = min(NEIGHBOURS, int((self._timer() - self.starts[-1]) / INTERVAL_S))
        for _ in range(due):
            self.sample()

    def factor(self, at: float) -> float:
        """``REFERENCE_S`` over the median of the kernel times nearest ``at``."""
        pos = bisect_right(self.starts, at)
        near = self.seconds[max(0, pos - NEIGHBOURS) : pos + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)
