"""The host's speed through a run, and the clock that operations are timed by.

The host lends this benchmark part of a shared machine whose speed moves
by half or more from one minute to the next (see README.md, "Why times
are scaled").  So while a run measures, a timer signal interrupts it
every SAMPLE_EVERY_S seconds and times a fixed piece of the benchmark's
own code: `reference.ReferenceMachine.accepts` on one word.  The program
never runs that code, so a change to the program cannot change the
samples.

Each timed interval is scaled by REFERENCE_S over the mean of the samples
taken while it ran, its window widened to at least LOCAL_S seconds: it
reads as the seconds it would take on a host where that piece of code
takes REFERENCE_S.

The time spent in the handler is kept out of the operation it interrupts:
operations are timed with `clock()`, which stops while the handler runs.
A process has one SIGALRM handler, so that time is kept module-wide.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

import machines
import reference as ref

SAMPLE_EVERY_S = 0.02
LOCAL_S = 0.25
# A 2,000-symbol word through the reference machine for 0^n 1^n, n = 0
# (mod 3): about 0.4-0.8 ms on the host the baseline was measured on.
REFERENCE_S = 0.0005
_WORD = "0" * 1000 + "1" * 1000

_spent = 0.0


def clock() -> float:
    """perf_counter, less the time the sampler has taken."""
    return perf_counter() - _spent


class HostSpeed:
    def __init__(self):
        # (clock() when taken, seconds), in the order taken.
        self.samples: list[tuple[float, float]] = []
        self._machine = ref.ReferenceMachine.from_document(machines.counter_doc(3))
        self._at: list[float] = []
        self._sums: list[float] = []

    def _sample(self, signum, frame) -> None:
        global _spent
        t0 = perf_counter()
        at = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            a = perf_counter()
            self._machine.accepts(_WORD)
            self.samples.append((at, perf_counter() - a))
        finally:
            if collecting:
                gc.enable()
            _spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._at = [at for at, _ in self.samples]
        self._sums = [0.0, *accumulate(s for _, s in self.samples)]

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds`, timed from clock() `start`, at the reference speed."""
        pad = max(0.0, (LOCAL_S - seconds) / 2)
        lo = bisect_left(self._at, start - pad)
        hi = bisect_right(self._at, start + seconds + pad)
        if hi == lo:
            lo, hi = 0, len(self._at)
        return seconds * REFERENCE_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
