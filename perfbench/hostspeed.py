"""Host-speed calibration, sampled on the benchmark's own CPU.

The benchmark runs on shared virtual CPUs whose speed changes by up to
about 1.45x within seconds, independently per CPU, for reasons outside the
process (a fixed pure-Python loop pinned to one CPU alternates between
about 70 ms and 100 ms per 10^6 iterations).  Timings taken in the slow
state would make runs of identical code differ by more than any useful
bound.  So the benchmark times a fixed loop every ``INTERVAL`` seconds
from a ``SIGALRM`` handler in its main thread, the same thread that runs
the simulator, and divides each host time by the host's slowdown over the
same interval: the loop's time against ``REF_S``.  The loop's own time is
subtracted from the measured intervals.  Raw host times are reported
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 20_000
# Seconds LOOP takes on the reference host, a 2-core Xeon VM, in its fast
# state; scaled times are host seconds on that host.
REF_S = 0.00135
INTERVAL = 0.1


def calibrate() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i
    return time.perf_counter() - start


def slowdown_now(samples: int = 5) -> float:
    """The host's current slowdown from a few back-to-back loops."""
    return statistics.median(calibrate() for _ in range(samples)) / REF_S


class Sampler:
    """Times the loop every INTERVAL seconds while it is entered."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.slowdowns: list[float] = []
        self.spent = 0.0  # seconds spent calibrating, to subtract

    def _sample(self, *_):
        start = time.perf_counter()
        self.slowdowns.append(calibrate() / REF_S)
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown sampled in [start, end], else the nearest sample."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return statistics.median(self.slowdowns[lo:hi])
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - start))
        return self.slowdowns[near]
