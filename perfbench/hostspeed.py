"""Host speed, sampled with a fixed reference kernel beside the measured work.

The benchmark runs on a few cores of a shared host whose speed moves by
2x and more, in spells from milliseconds to minutes, as other tenants
come and go; a run that happens to sit in a slow spell reads slow on
every metric.  :class:`HostSpeed` times :func:`reference_work` (a fixed
mix of interpreter loops and small numpy calls, the same kind of work
the program does) at regular intervals of wall time while the program
runs.  A time measured between ``t0`` and ``t1`` is then reported at
*reference speed*: multiplied by :data:`REFERENCE_S` over the mean
kernel time sampled within :data:`WINDOW_S` of that interval.  The
kernel is part of the benchmark, not the program, so a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Nominal seconds of one :func:`reference_work` call: scaled times read
#: as on a host where the kernel takes this long.
REFERENCE_S = 1e-3

#: Kernel samples within this many seconds of a timed interval set its scale.
WINDOW_S = 1.0

#: While operations run, one kernel sample is taken this often (seconds).
SAMPLE_EVERY_S = 0.1


def reference_work() -> float:
    """A fixed amount of interpreter and small-array work (~1 ms)."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += (i * 0.5) % 7
    row = np.linspace(0.0, 1.0, 64)
    for _ in range(80):
        row = np.maximum(np.abs(row[::-1] - row), np.minimum.accumulate(row)) + 1e-3
    return total + float(row.sum())


class HostSpeed:
    """Kernel samples ``(start, seconds)`` in time order, and the scales they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.cumulative: list[float] = [0.0]
        self.next_sample = 0.0

    def sample(self, count: int = 1) -> None:
        """Time *count* kernel calls now."""
        for _ in range(count):
            t0 = time.perf_counter()
            reference_work()
            self.starts.append(t0)
            self.cumulative.append(self.cumulative[-1] + time.perf_counter() - t0)
        self.next_sample = time.perf_counter() + SAMPLE_EVERY_S

    def tick(self) -> None:
        """Sample if :data:`SAMPLE_EVERY_S` passed since the last sample."""
        if time.perf_counter() >= self.next_sample:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over ``[t0, t1]`` into reference speed."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError(f"no host speed sample within {WINDOW_S} s of [{t0:.3f}, {t1:.3f}]")
        return REFERENCE_S * (hi - lo) / (self.cumulative[hi] - self.cumulative[lo])

    def kernel_ms(self) -> float:
        """Median kernel time over all samples, in milliseconds (for the record)."""
        times = np.diff(self.cumulative)
        return float(np.median(times)) * 1e3 if len(times) else float("nan")
