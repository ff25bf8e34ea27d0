"""Machine-speed calibration for the end-to-end timings.

The host these numbers come from drifts between a fast and a slow mode for
minutes at a time; the same run can take 1.4 times as long ten minutes
later.  Every timing metric is therefore scaled to a reference speed: a fixed
pure-Python loop, which never touches `mfrac`, is timed between operations,
and each operation's wall time is multiplied by REFERENCE_S over the loop
time measured around it.  A change to `mfrac` moves the scaled times exactly
as it moves wall times; a change of machine speed mostly cancels.  Raw wall
times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import time

# Loop time that defines the reference speed (about the loop's time on a
# 2.1 GHz Xeon vCPU in its fast mode).  It sets the unit only.
REFERENCE_S = 0.002
# Timed operation seconds between two calibration points.
EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for the fixed loop, best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(10000):
            acc += math.sin(i * 1e-3) * (i & 7)
            table[i & 255] = (acc, i)
        best = min(best, time.perf_counter() - start)
    return best


class Calibration:
    """Calibration points (operation index, loop seconds) taken between
    timed operations, and the scaling they imply."""

    def __init__(self):
        self.points = []
        self.since = 0.0

    def mark(self, index: int):
        """Calibrate before operation `index`."""
        self.points.append((index, calibrate()))
        self.since = 0.0

    def timed(self, index: int, elapsed: float):
        """Note that operation `index` took `elapsed` seconds."""
        self.since += elapsed
        if self.since >= EVERY_S:
            self.mark(index + 1)


def scale(durations, first: int, points) -> list:
    """durations[first:] scaled by REFERENCE_S over the mean of the nearest
    calibration points before and after each operation."""
    indices = [index for index, _ in points]
    scaled = []
    for i in range(first, len(durations)):
        pos = bisect.bisect_right(indices, i)
        loop_s = 0.5 * (points[pos - 1][1] + points[min(pos, len(points) - 1)][1])
        scaled.append(durations[i] * REFERENCE_S / loop_s)
    return scaled
