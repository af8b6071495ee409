"""Times on a common scale of host speed.

A shared 2-vCPU host can run the same Python code 1.8 times slower, in
phases from tens of milliseconds to seconds, and its mean speed drifts over
hours. A wall-clock median then moves by more than any useful bound. So the
benchmark times a fixed calibration slice before every planner call. The
stretch of wall time between slice k and slice k+1 is scaled by REF_SLICE_S
over the median time of slices k-1 to k+2, the two on each side of it. A
time then reads as it would on a host where the slice takes REF_SLICE_S: a
change in the program's own work still shows, a change in the host's speed
mostly does not. The slices themselves are cut out of every time.
"""

from __future__ import annotations

import time

import numpy as np

# The slice's median time on the reference machine (perfbench/README.md), so
# times read close to that machine's wall-clock times.
REF_SLICE_S = 0.7e-3

_SLICE_ARRAY = np.linspace(0.0, 1.0, 41)


def calibration_slice() -> float:
    """Fixed work in the planner's mix: a scalar Python loop and small numpy ops."""
    s = 0.0
    for i in range(1200):
        s += (i * 0.5) ** 0.5
    x = _SLICE_ARRAY
    for _ in range(60):
        x = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(_SLICE_ARRAY), x[1:]))[:40]])
    return s + float(x[-1])


class HostClock:
    """Wall time with the calibration slices cut out, and its scaled length."""

    def __init__(self):
        self.slices: list = []  # wall seconds of each calibration slice
        self._starts: list = []  # wall() at the end of each slice, where its stretch starts
        self._cut = 0.0
        self._t0 = time.perf_counter()
        self.checkpoint()

    def wall(self) -> float:
        """Wall seconds since the clock was made, calibration slices cut out."""
        return time.perf_counter() - self._t0 - self._cut

    def checkpoint(self) -> None:
        """Time one calibration slice; the next stretch of wall time starts after it."""
        t0 = time.perf_counter()
        calibration_slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self._cut += t1 - t0
        self._starts.append(self.wall())

    def scale(self, intervals) -> np.ndarray:
        """Scaled length of each (start, end) interval of wall() readings.

        Uses every slice taken so far, so call it once the intervals have ended.
        """
        s = np.asarray(self.slices)
        factor = REF_SLICE_S / np.array([np.median(s[max(0, k - 1) : k + 3]) for k in range(len(s))])
        starts = np.asarray(self._starts)
        scaled_at_start = np.concatenate([[0.0], np.cumsum(np.diff(starts) * factor[:-1])])

        def scaled_at(x):
            k = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
            return scaled_at_start[k] + (x - starts[k]) * factor[k]

        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        return scaled_at(iv[:, 1]) - scaled_at(iv[:, 0])


class Paced:
    """A planner that lets the clock calibrate before each plan."""

    def __init__(self, planner, clock: HostClock):
        self.kind = planner.kind
        self._planner = planner
        self._clock = clock

    def plan(self, ego, agents, t: float = 0.0):
        self._clock.checkpoint()
        return self._planner.plan(ego, agents, t=t)
