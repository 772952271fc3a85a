"""A fixed reference workload that gauges how fast this machine runs right now.

The 2-core VM this benchmark was defined on shares its host: for seconds at a
time its CPU runs up to ~1.8x slower, so raw op medians moved by up to ~28 %
from one run to the next.  The reference is timed about every REF_EVERY_S seconds between ops,
and each op's wall time is scaled by REF_NOMINAL_MS / (median of the
reference times within REF_WINDOW_S of the op).  The result is the op's wall time on a
machine where the reference takes REF_NOMINAL_MS.

The reference mixes the kinds of work pathfuse does: parsing CSV floats into
lists, numpy sliding medians, and a Python loop over numpy scalars.  Its code
and inputs never change, so it ignores any change to pathfuse.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REF_NOMINAL_MS = 20.0  # the reference took 17-23 ms on a 2-core shared Xeon VM
REF_EVERY_S = 0.25  # well below the seconds-long speed phases
REF_WINDOW_S = 1.0  # samples this close to an op gauge the speed it ran at


class Reference:
    """Times the fixed workload and scales op times by the machine speed around them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=20000)
        self._text = "\n".join(",".join(f"{v:.9f}" for v in row) for row in rng.normal(size=(3000, 7)).tolist())
        self.starts: list[float] = []
        self.ms: list[float] = []

    def _work(self) -> float:
        rows = [[float(f) for f in line.split(",")] for line in self._text.split("\n")]
        total = float(np.array(rows).sum())
        total += float(np.median(sliding_window_view(self._x, 11), axis=1).sum())
        for v in self._x:
            total += v * 0.5
        return total

    def sample(self) -> None:
        """Time the reference once."""
        t0 = time.perf_counter()
        self._work()
        self.starts.append(t0)
        self.ms.append((time.perf_counter() - t0) * 1000.0)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_MS over the median reference time within REF_WINDOW_S of [start, end].

        The median of several nearby samples keeps one quick or slow sample
        from scaling an op by its own noise.
        """
        lo = bisect.bisect_left(self.starts, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + REF_WINDOW_S)
        near = self.ms[lo:hi] or self.ms[max(lo - 1, 0) : lo + 1]
        return REF_NOMINAL_MS / statistics.median(near)
