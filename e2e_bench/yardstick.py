"""A host-speed yardstick: the clock every benchmark time is read from.

On a shared host the CPU runs faster or slower from one minute to the
next, mostly through other tenants' use of the caches and memory: the
same fuzz campaign, run eight times in a row in one process, took
7.5 to 10.0 CPU seconds.  Neither wall time nor CPU time removes that.

So while a run measures, :class:`Yardstick` interrupts it every
:data:`INTERVAL_S` CPU seconds (``ITIMER_PROF``) to time a fixed piece
of pure-Python work, about a millisecond long, that does not touch the
program under test: random reads and dict updates over a few hundred
kilobytes, so it feels the caches and memory the way the program does.
Its mean time over the samples around an interval tells how fast the
host ran then, and :meth:`Yardstick.to_reference` scales the
interval's CPU seconds to *reference seconds*: seconds on a host where
the yardstick takes :data:`REFERENCE_S`.  The yardstick's own time is
taken out of every interval read from :meth:`Yardstick.clock`.

Scaling by a yardstick over a megabyte sampled every 0.08 s cut the
spread (standard deviation over mean) of the eight campaigns above
from 11% to 3%.  Sampling a smaller one every 30 ms tracks shorter
slow spells: over five runs of one Juliet plan, the spread (IQR over
median) of the verdict tail fell from 0.19 to 0.14 with it.

CPU time is the calling thread's (``CLOCK_THREAD_CPUTIME_ID``): while a
process-wide CPU timer is armed, Linux reads the process CPU clock at
tick granularity, so ``time.process_time`` can report 4 ms for 8 ms of
work.  The benchmark runs in one thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: CPU seconds between two samples, counted by ``ITIMER_PROF``.
INTERVAL_S = 0.03
#: The yardstick's CPU time on the reference host; reported seconds are
#: CPU seconds scaled to it.
REFERENCE_S = 0.001

_SIZE = 4001
#: A fixed permutation of the slots, so reads jump around the working set.
_ORDER = [(i * 7919) % _SIZE for i in range(_SIZE)]
_KEYS = [(i * 31) % 4099 for i in range(_SIZE)]


def work() -> int:
    """The fixed work."""
    table: dict = {}
    total = 0
    for i in _ORDER:
        key = _KEYS[i]
        total += table.get(key, 0) + i
        table[key] = total & 0xFFFF
    return total


class Yardstick:
    """Samples the yardstick while active (a ``with`` block)."""

    def __init__(self) -> None:
        #: CPU seconds of each sample, and the :meth:`clock` it started at.
        self.samples: list[float] = []
        self.sampled_at: list[float] = []
        #: CPU seconds spent sampling, left out of :meth:`clock`.
        self.spent_s = 0.0
        self._previous = None

    def clock(self) -> float:
        """CPU seconds of this thread, not counting the yardstick's own."""
        return time.thread_time() - self.spent_s

    def sample(self, *_signal_args) -> None:
        self.sampled_at.append(self.clock())
        started = time.thread_time()
        work()
        took = time.thread_time() - started
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "Yardstick":
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """The factor from CPU seconds to reference seconds: over the
        samples within :data:`INTERVAL_S` of the interval from *start*
        to *end* (clock readings), or over the whole run."""
        samples = self.samples
        if start is not None:
            samples = samples[bisect.bisect_left(self.sampled_at, start - INTERVAL_S):
                              bisect.bisect_right(self.sampled_at, end + INTERVAL_S)]
        return REFERENCE_S / statistics.mean(samples or self.samples)

    def to_reference(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, CPU seconds)`` interval, in reference seconds."""
        return [seconds * self.scale(start, start + seconds) for start, seconds in intervals]
