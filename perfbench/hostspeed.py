"""The machine's speed, sampled through a run, to put timings on one scale.

The benchmark runs on shared machines whose speed drifts while it runs: on
a two-core host a fixed pure-Python loop took 11 to 16 ms from one 2-s
window to the next, and `run_verification("fast")` alternated between about
28 and 49 ms per call in phases of a few seconds, so a median over one run
landed on either mode.  A SIGALRM handler runs a fixed loop every PERIOD_S
seconds of wall time and records when it ran and how long it took.  A timed
interval is then rescaled to the speed at which that loop takes REF_S: its
time, less the handler's time inside it, times REF_S over the median loop
time within HALF_WINDOW_S of the interval.  Rescaling halved the range of
4-s window medians of the fast checks on that host (0.30 to 0.15).

The handler runs in the main thread between bytecodes, so it is late but
never concurrent when the program is inside a long C call.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 20_000
PERIOD_S = 0.05
HALF_WINDOW_S = 0.25
REF_S = 1.4e-3  # the loop's time at reference speed, about its median on that host


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


class HostSpeed:
    """Samples the loop time while active; rescales intervals afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] of ``perf_counter`` would take at
        reference speed."""
        if not self.starts:
            raise ValueError("no speed samples")
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        busy = t1 - t0 - sum(self.durations[i:j])
        a = bisect.bisect_left(self.starts, t0 - HALF_WINDOW_S)
        b = bisect.bisect_right(self.starts, t1 + HALF_WINDOW_S)
        if a == b:  # handler held off by a long C call: use the nearest samples
            a, b = max(a - 1, 0), min(b + 1, len(self.starts))
        return busy * REF_S / statistics.median(self.durations[a:b])
