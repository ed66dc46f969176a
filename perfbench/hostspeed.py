"""Host-speed reference for scaling end-to-end times.

On a 2-CPU host shared with other tenants, a run can go 30-40% faster or
slower for a minute at a time. `reference_s` times a fixed pure-Python
loop that speeds up and slows down with the library (over 3 s windows their
times correlated at 0.97). `HostSpeed` samples that loop around and inside
the operations, never within their timings, and scales each operation's
wall time by `REF_NOMINAL_S` over the mean loop time sampled around it.
The results read as seconds at the host's usual speed.

Starting a process tracks the host differently from a pure-Python loop, so
set-up times are scaled by `interpreter_start_s`, a bare interpreter start
timed just before each set-up process, against `START_NOMINAL_S`.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: About the median `reference_s()` on that 2-CPU host (Python 3.11.7).
REF_NOMINAL_S = 0.042
#: About the median `interpreter_start_s()` on the same host.
START_NOMINAL_S = 0.065
#: Least time between two samples taken inside an operation.
SAMPLE_EVERY_S = 0.25


def reference_s() -> float:
    """Wall time of the fixed reference loop."""
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 97, 7 + i % 13)
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return time.perf_counter() - started


def interpreter_start_s() -> float:
    """Wall time of starting a bare interpreter that does nothing."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - started


class HostSpeed:
    """Reference-loop samples of one run, in the order they were taken.

    Call `sample()` once before the first timed interval. After each
    interval, `scaled()` samples the gap that follows it; the interval is
    judged by the samples from the gap before it to the gap after it,
    including any taken inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._gap_start = 0
        self._sampled_at = time.perf_counter()

    def sample(self) -> float:
        t = reference_s()
        self.samples.append(t)
        self._sampled_at = time.perf_counter()
        return t

    def sample_due(self) -> float:
        """Inside an operation: sample when `SAMPLE_EVERY_S` has passed since
        the last sample. Returns the seconds this took, for the caller to
        take out of the operation's timing."""
        started = time.perf_counter()
        if started - self._sampled_at < SAMPLE_EVERY_S:
            return 0.0
        self.sample()
        return time.perf_counter() - started

    def scaled(self, wall_s: float, gap: int = 1) -> float:
        """`wall_s` at nominal speed, after sampling a gap of `gap` loops."""
        start = len(self.samples)
        for _ in range(gap):
            self.sample()
        around = statistics.fmean(self.samples[self._gap_start:])
        self._gap_start = start
        return wall_s * REF_NOMINAL_S / around
