"""Reference loop that measures how fast this machine runs Python right now.

On a shared machine the speed of pure-Python code drifts by 20-40 % within
seconds, as other tenants come and go.  Every time the benchmark reports is
therefore scaled to a machine of fixed speed: multiplied by
``NOMINAL_S / mean(reference block time)``, with the reference block timed
all through the measured work.  The block does the kind of work sepekr does
(small-int arithmetic, big-int bit operations, method calls) and never
touches sepekr, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

ROUNDS = 3000
NOMINAL_S = 0.0004  # the block's time on the reference machine that reported times refer to
INTERVAL_S = 0.02


def reference_seconds(blocks: int = 1) -> float:
    """Mean time of one reference block over ``blocks`` consecutive blocks."""
    start = time.perf_counter()
    acc = 0
    for i in range(blocks * ROUNDS):
        acc = (acc ^ (i << (i & 127))).bit_count() + i
    return (time.perf_counter() - start) / blocks


def speed_factor(*block_seconds: float) -> float:
    """Factor that turns seconds measured at the sampled speed into reference seconds."""
    return NOMINAL_S / fmean(block_seconds)


class SpeedSampler:
    """Times one reference block on entry, every INTERVAL_S of wall time inside, and on exit.

    ``interrupted`` is the wall time the samples inside took; the caller
    subtracts it from the time it measured.  Uses SIGALRM, so one per process.
    """

    def __enter__(self) -> "SpeedSampler":
        self.samples = [reference_seconds()]
        self.interrupted = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_seconds())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.interrupted += time.perf_counter() - start

    @property
    def factor(self) -> float:
        return speed_factor(*self.samples)
