"""Machine-speed reference for the timed spans of the benchmark.

Other tenants of a shared machine slow every process on it, by 20-80 % and
for seconds to minutes at a time, and a process's CPU time slows with its
wall time, so neither can be compared across runs made at different times.
``SpeedRef`` times a fixed reference kernel (string splitting and dict
look-ups, a numpy sort and exp, a scipy special function) right before and
right after each span of program work, and scales the span's wall time by
the kernel's ``BASE_S`` over its measured time. The result is the span's
time at the machine speed ``BASE_S`` was taken at, so that a slow phase of
the machine cancels out while a change to the program's own work does not.
The reference code is part of the benchmark, not of adlift, so no change to
the program moves it.

The scaling holds for interpreter-bound spans (CSV parsing and formatting,
per-request loops, the set-up): their wall time correlated 0.6-0.9 with the
reference taken beside them, and scaling halved their pass-to-pass spread.
The import of adlift in a fresh interpreter tracks it loosely: scaling adds
some run-to-run noise but removes most of a slow phase's effect.
It does not hold for long numpy/scipy kernel spans (the churn Monte-Carlo,
batch scoring), whose wall time did not correlate with the reference and
which scaling made noisier; ``spec.json`` lists those per workload as
``unscaled_stages``.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from scipy import special

# median time of each reference kernel on a 2-vCPU Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1); only the ratios to these matter
BASE_S = (0.0029, 0.0043, 0.0043)
REPEATS = 3


class SpeedRef:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._lines = [f"k{i % 250},{i}" for i in range(12_000)]
        self._table = {f"k{i}": i for i in range(200)}
        self._array = rng.random(200_000)
        self._quantiles = rng.random(4_000) * 0.98 + 0.01
        self._before = None

    def _strings(self):
        total = 0
        for line in self._lines:
            key, value = line.split(",")
            total += self._table.get(key, 0) + len(value)
        return total

    def _arrays(self):
        return float(np.exp(-np.sort(self._array * 1.0001)).sum())

    def _special(self):
        return float(special.gammaincinv(0.8, self._quantiles).sum())

    def slowdown(self) -> float:
        """The machine's current time per unit of work relative to BASE_S."""
        gc_enabled = gc.isenabled()
        gc.disable()  # the program's leftover objects must not slow the kernel
        try:
            ratios = []
            for kernel, base in zip((self._strings, self._arrays, self._special), BASE_S):
                times = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    kernel()
                    times.append(time.perf_counter() - t0)
                ratios.append(statistics.median(times) / base)
        finally:
            if gc_enabled:
                gc.enable()
        return statistics.fmean(ratios)

    def mark(self):
        """Measure the speed before the next span."""
        self._before = self.slowdown()

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of a span that just ended, at the BASE_S machine speed.

        The reference taken after this span also serves as the one before
        the next, so consecutive spans cost one reference each.
        """
        after = self.slowdown()
        before = after if self._before is None else self._before
        self._before = after
        return wall_s / ((before + after) / 2.0)
