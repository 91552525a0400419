"""A probe that follows this machine's speed through a run.

Neighbours on the host move this machine's speed by up to 25 % within a
minute, and CPU time moves with wall time, so neither alone gives a time
that repeats.  While a run measures, a timer signal interrupts the program
every EVERY_S and times a fixed kernel that does not use aqmds; the time
spent probing is subtracted from the operation it interrupted.  An
operation's time is then scaled by REFERENCE_S over the mean probe time
within WINDOW_S of it: the result is the time the operation takes on this
machine when the probe takes REFERENCE_S.  The kernel mixes numpy table
lookups with an interpreted loop, like the program's hot paths.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

REFERENCE_S = 0.004
EVERY_S = 0.5
WINDOW_S = 2.0  # probes this close to an operation's start or end count for it


class SpeedProbe:
    """Samples the kernel time from a timer signal while used as a context manager."""

    def __init__(self, on_pause: Optional[Callable[[float], None]] = None):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
        self._words = rng.integers(0, 256, size=(4096, 16), dtype=np.uint8)
        self._on_pause = on_pause
        self._busy = False
        self.times: List[float] = []  # mid-point of each sample
        self.values: List[float] = []  # kernel seconds of each sample
        self.paused = 0.0  # seconds spent sampling so far

    def _kernel(self) -> int:
        y = self._words
        for _ in range(6):
            y = self._table[y, self._words]
            np.count_nonzero(y, axis=1).min()
        s = 0
        for i in range(7000):
            s = (s * 31 + i) % 1000003
        return s

    def sample(self) -> None:
        """Record the fastest of three timings of the kernel."""
        if self._busy:  # an alarm that arrives while sampling
            return
        self._busy = True
        start = perf_counter()
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.values.append(best)
        self.paused += end - start
        if self._on_pause is not None:
            self._on_pause(end - start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.values[lo:hi] or [self.values[min(lo, len(self.values) - 1)]]
        return REFERENCE_S / statistics.fmean(near)
