"""Host speed probe: a fixed numpy workload timed between the stage processes.

On a shared host the speed of the whole machine drifts by a fifth and more
over minutes, in every stage at once, and one run lasts well under a minute.
The probe is timed a dozen times in a run, in the benchmark's own
process right after each stage ends, so its median tracks the speed the
stages ran at.  ``speed()`` is ``NOMINAL_S`` over that median: below 1 on a
slow host, about 1 on a quiet one.  The probe shares no code with
``occfield``; a change to the program cannot move it.

Its mix follows the pipeline's: random gathers from arrays larger than the
cache (first-hit traversal, query building), small matrix products (the
MLP) and touching freshly allocated memory (activation caches).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.05  # the probe's median time on a quiet 2-core host
REPEATS = 2  # probes per call; the fastest is kept


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._src = rng.standard_normal(1 << 21)
        self._idx = rng.integers(0, len(self._src), 1 << 19)
        self._mat = rng.standard_normal((128, 128))
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self._src[self._idx].sum()
        for _ in range(8):
            self._mat @ self._mat
        fresh = np.empty(1 << 22)
        fresh.fill(1.0)
        del fresh
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(min(self._once() for _ in range(REPEATS)))

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def speed(self) -> float:
        return NOMINAL_S / self.median_s()
