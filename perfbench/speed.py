"""CPU speed sampling that puts the benchmark's times on one scale.

The machine the bounds were set on is shared: how fast it runs Python drifts
by half within seconds, while the program's work stays the same.  `probe()`
times a fixed piece of exact rational arithmetic, the kind of work the
casimir kernel does.  A `Sampler` in each child process runs it at start and
then every INTERVAL_S seconds of wall time, from a SIGALRM handler, so that
operations of any length have samples on either side and inside them.  Each
stretch between two samples is scaled by REFERENCE_S over the mean of the
two, and the time of the probes themselves is left out of every interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# probe() on an unloaded core of the 2-CPU machine the bounds were set on, so
# that scaled times read close to measured ones there
REFERENCE_S = 0.002
INTERVAL_S = 0.25


def probe() -> float:
    """Median time of three runs of the fixed arithmetic, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1000):
            acc += Fraction(i % 7 + 1, i % 11 + 2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Speed samples over this process's life, as (start, end, probe time)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick()

    def _tick(self, *_signal) -> None:
        if self._busy:  # a slow probe overran the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        took = probe()
        self.samples.append((t0, time.perf_counter(), took))
        self._busy = False

    def probe_s(self) -> float:
        return sum(end - start for start, end, _took in self.samples)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """(measured, scaled) time from `start` to `end`, probes left out.
        Both instants must lie between the first and the last sample."""
        measured = scaled = 0.0
        for (_s, a_end, a_took), (b_start, _e, b_took) in zip(self.samples, self.samples[1:]):
            span = min(end, b_start) - max(start, a_end)
            if span > 0:
                measured += span
                scaled += span * REFERENCE_S * 2 / (a_took + b_took)
        return measured, scaled
