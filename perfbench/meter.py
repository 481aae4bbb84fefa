"""Timing on a shared machine: fastest of repeats, scaled by a calibration loop.

The machine this benchmark was built on shares its CPUs with other tenants.
The same code runs up to twice as slow within a second, and 10-30% slower
for tens of seconds at a time.  Two measures keep a run steady:

- every short unit of work runs `REPEATS` times on identical inputs and the
  fastest time counts, which drops the short stalls;
- a fixed pure-Python loop (`calibrate`), owned by the benchmark and
  untouched by any change to qcss, measures the machine's speed before and
  after each unit and, from a timer signal, every `PERIOD_S` inside it.
  Each unit's time, less the time spent calibrating, is scaled by
  `REFERENCE_S / (mean calibration)` to the time it would take at the
  reference speed.  A change to qcss moves the unit's time and not the
  calibration, so it shows in full.
"""
from __future__ import annotations

import signal
import statistics
import time

from qcss.errors import QcssError

clock = time.perf_counter

REPEATS = 3
PERIOD_S = 0.5
# `calibrate()` at the reference speed: its typical value on the 2-CPU
# x86-64 VM (Python 3.11.7) where the baseline was recorded.  It only fixes
# the scale of the reported seconds.
REFERENCE_S = 0.0012


def _calibration_loop() -> int:
    # dict traffic, integer arithmetic and popcounts: the mix of the
    # interpreter work that dominates qcss
    d: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = i & 511
        v = (i * 2654435761) & 0xFFFFFFFFFFFF
        d[k] = v ^ d.get(k ^ 7, 0)
        acc += (v & d[k]).bit_count()
    return acc


def calibrate() -> float:
    """Fastest of three timed calibration loops, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        _calibration_loop()
        best = min(best, clock() - t0)
    return best


class Meter:
    """Times units of work at the reference speed; use as a context manager,
    which runs the in-unit calibration timer."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._samples: list[float] = []
        self._stolen = 0.0
        self._last: float | None = None
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame) -> None:
        t0 = clock()
        self._samples.append(calibrate())
        self._stolen += clock() - t0

    def time(self, fn, repeats: int = REPEATS) -> tuple[float, list]:
        """(scaled fastest seconds, every output) over `repeats` calls of
        `fn` on identical inputs; an exception from qcss counts as that
        call's output."""
        if self._last is None:
            self._last = calibrate()
        first = len(self._samples)
        best, outs = float("inf"), []
        for _ in range(repeats):
            stolen, t0 = self._stolen, clock()
            try:
                out = fn()
            except QcssError as exc:
                out = exc
            best = min(best, clock() - t0 - (self._stolen - stolen))
            outs.append(out)
        after = calibrate()
        speed = statistics.fmean([self._last, *self._samples[first:], after])
        self._last = after
        scaled = best * REFERENCE_S / speed
        self.raw_s += best
        self.scaled_s += scaled
        return scaled, outs
