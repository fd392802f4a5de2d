"""A clock that counts seconds at a fixed reference speed.

The machines this benchmark runs on share cores with other tenants, and a
core's speed moves by up to half for stretches of seconds to minutes.  Raw
wall time then varies by a fifth or more between identical runs.  This
clock removes that: a fixed probe (plain interpreter work: integer and
rational arithmetic, dict updates) runs every ``TICK_S`` seconds from a
timer signal, and each interval of wall time is scaled by
``PROBE_REF_S / probe time``, with the probe time taken as the median of
the last three probes.  A reading is then the time the work would have
taken had the probe run in ``PROBE_REF_S``, which is about its time on an
idle core of the machine the benchmark was defined on.  Probe time itself
is not counted.

The probe runs only stdlib code, so changes to the package cannot move it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_REF_S = 1.0e-3
TICK_S = 0.05


def probe() -> float:
    """Wall time of a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(360):
        table[i % 37] = table.get(i % 37, 0) + i * i
        acc += Fraction(i, 7)
    s = 0
    for i in range(4500):
        s += i * i % 7
    return time.perf_counter() - t0


def _median3(a: float, b: float, c: float) -> float:
    return max(min(a, b), min(max(a, b), c))


class RefClock:
    """Reference-speed seconds since ``start``; one per process at a time."""

    def __init__(self):
        self._recent = (PROBE_REF_S,) * 3
        self._state = (0.0, time.perf_counter(), PROBE_REF_S)

    def start(self) -> RefClock:
        self._recent = (probe(), probe(), probe())
        self._state = (0.0, time.perf_counter(), _median3(*self._recent))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def now(self) -> float:
        ref, base, p = self._state
        return ref + (time.perf_counter() - base) * PROBE_REF_S / p

    def _tick(self, signum, frame) -> None:
        ref, base, p = self._state
        ref += (time.perf_counter() - base) * PROBE_REF_S / p
        self._recent = self._recent[1:] + (probe(),)
        self._state = (ref, time.perf_counter(), _median3(*self._recent))

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.now()
