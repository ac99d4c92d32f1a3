"""Host-speed probe: fixed work timed beside the decisions.

The reference machine shares its cores with other tenants. It flips
between a fast state and one up to 2x slower in spells of tens of
milliseconds, and the share of time spent slow drifts over minutes. The
benchmark runs a burst of `tick()` after every decision but the shortest,
keeps the faster tick of each burst (the first pays for caches the
decision before it evicted), and multiplies each time it measures (a
decision, a set-up) by REFERENCE_TICK_S over the mean of the bursts taken
within WINDOW_S of it, or within its own length if that is longer: the
time the work takes on the reference machine in its fast state. The
ticks never call `gptsim`, so a change to the library moves scaled and
raw times alike. The raw times are printed beside the scaled ones.

The tick does the kinds of work the workloads do, in fixed amounts:
rational Gaussian elimination (Fraction arithmetic and object churn, as
in the exact tableau) and rank-one updates of a dense float array (as in
the float tableau).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# The tick on the reference machine in its fast state; it sets the scale of
# the reported times only.
REFERENCE_TICK_S = 0.001
# A burst follows every decision that took LONG_S or more, and any other
# decision that ends TICK_EVERY_S after the last burst. The host's states
# last tens of milliseconds, so only a burst taken right beside a decision
# tells which state it ran in.
LONG_S = 0.005
TICK_EVERY_S = 0.05
BURST = 2             # ticks in a burst; the faster of them is kept
WINDOW_S = 0.05       # bursts this close to a timed interval describe its speed
MIN_BURSTS = 2        # else the nearest this many do

_RATIONAL = [[Fraction((7 * i + 3 * j * j) % 13 - 6, 1 + (i + 2 * j) % 5)
              for j in range(7)] for i in range(6)]
_DENSE = np.fromfunction(lambda i, j: np.cos(0.37 * i + 0.11 * j) + 2.0 * (i == j),
                         (300, 360))


def _eliminate(rows):
    rows = [row[:] for row in rows]
    for k in range(len(rows)):
        pivot = next(r for r in range(k, len(rows)) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = 1 / rows[k][k]
        rows[k] = [x * inv for x in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][k] != 0:
                f = rows[r][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return rows


def _pivot(dense, steps):
    a = dense.copy()
    for k in range(steps):
        a -= np.outer(a[:, k], a[k] / a[k, k])
    return a


def tick():
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    _eliminate(_RATIONAL)
    _pivot(_DENSE, 2)
    return time.perf_counter() - t0


class Probe:
    """Bursts of ticks taken through a run, to scale the times measured between them."""

    def __init__(self):
        self.at = []       # when each burst ended, perf_counter seconds
        self.took = []     # the faster tick of each burst, seconds
        self.last = float("-inf")

    def sample(self):
        self.took.append(min(tick() for _ in range(BURST)))
        self.last = time.perf_counter()
        self.at.append(self.last)

    def after(self, took):
        """Called after a decision that took `took` seconds."""
        if took >= LONG_S or time.perf_counter() - self.last >= TICK_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """The factor that turns a time measured over [start, end] into
        reference time: the reference tick over the mean burst within
        WINDOW_S of the interval, or within its own length if longer (a long
        interval spans many of the host's spells), or else over the nearest
        MIN_BURSTS bursts."""
        reach = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, end + reach)
        if hi - lo < MIN_BURSTS:
            mid = bisect.bisect_left(self.at, end)
            lo = max(0, min(mid - MIN_BURSTS // 2, len(self.at) - MIN_BURSTS))
            hi = lo + MIN_BURSTS
        return REFERENCE_TICK_S / statistics.fmean(self.took[lo:hi])
