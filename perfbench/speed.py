"""Host speed reference, used to normalize wall times.

On a shared host the speed of one CPU swings by up to 1.6x in phases that
last from seconds to minutes, so two samples of the same work can differ by
half their time.  ``SpeedSampler`` runs a fixed exact-arithmetic kernel,
``reference()``, every ``INTERVAL_S`` seconds from a timer signal while a
sample runs.  Its timings trace the host's speed through the sample, and

    normalized = (wall - time spent in the kernel) * NOMINAL_S * mean(1 / kernel time)

is the wall time the sample would have taken at the nominal speed.

The kernel has the shape of the program's hot loops (a sparse product of
Fraction-coefficient dicts with bitmask keys, and Fraction row operations),
because integer-only code slows down less than that in a slow phase.  It
lives here and never changes with the program, so it measures the host,
not the code under test.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# reference() on an unloaded 2 GHz Xeon core (Sapphire Rapids, Python 3.11)
NOMINAL_S = 0.0012

_TERMS = {(i, j, (1 << (i % 5)) | (1 << (j % 4 + 5))): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
_ROWS = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(6)] for i in range(6)]


def reference() -> int:
    """A fixed amount of exact arithmetic; returns a checksum of it."""
    product = {}
    for (a1, b1, m1), c1 in _TERMS.items():
        for (a2, b2, m2), c2 in _TERMS.items():
            if m1 & m2:
                continue
            key = (a1 + a2, b1 + b2, m1 | m2)
            s = product.get(key, 0) + c1 * c2
            if s:
                product[key] = s
            else:
                del product[key]
    rows = [list(row) for row in _ROWS]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [x / lead for x in rows[rank]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != rank and f:
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return len(product) + rank


class SpeedSampler:
    """Context manager: samples the reference kernel on entry, on exit and
    every INTERVAL_S seconds in between (SIGALRM, main thread only).

    ``on_tick(seconds)`` is called after each timer-driven run of the
    kernel, so a tracer can keep that time out of the function it
    interrupted."""

    def __init__(self, on_tick=None):
        self.durations = []
        self.interrupted_s = 0.0
        self._on_tick = on_tick
        self._previous = None

    def _run_kernel(self) -> float:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        return dt

    def _tick(self, signum, frame):
        dt = self._run_kernel()
        self.interrupted_s += dt
        if self._on_tick is not None:
            self._on_tick(dt)

    def __enter__(self) -> "SpeedSampler":
        self._run_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_kernel()
        return False

    def normalize(self, wall_s: float) -> float:
        """Wall time of the sampled interval at the nominal speed; ``wall_s``
        includes the timer-driven kernel runs, which are taken out."""
        return (wall_s - self.interrupted_s) * NOMINAL_S * statistics.fmean(1 / d for d in self.durations)
