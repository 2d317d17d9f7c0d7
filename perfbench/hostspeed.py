"""Host-speed correction for the benchmark's times.

The benchmark runs on shared hosts whose speed changes by tens of percent
from one second to the next, and by up to a factor of two for minutes; the
process's CPU time changes with its wall time, so the cause is contention
inside the processor, not lost time slices.  To compare runs made at
different moments, a timer signal interrupts the run every INTERVAL_S of
wall time, through the operations and their checks alike, and times one call
of a fixed reference computation.  Each sample gives the host's speed at that
moment, ``NOMINAL_S / sample``.  A time
measured over an interval is reported at nominal host speed as

    reported = measured * mean(speed of the samples in the interval)

which is the work the interval held, in nominal seconds, if the program
slows down as the reference does.  The samples fall evenly in wall time, so
their mean speed is the interval's average speed; a sample stretched by an
interrupt reads a speed near 0 and so moves the mean by little.  Short
intervals are widened to WINDOW_S around their middle first.

A child process is timed with the timer off and corrected by ``speeds()``
taken just before and after it: samples taken while the child runs would
time the contention the child causes, not the host's speed.

The reference work lives here, not in the program, so no change to the
program can alter it.  It runs interpreter bytecode on small cached ints
only and allocates nothing, so its speed follows the host, not the heap the
program leaves behind.  The time the samples take is kept out of the
operations' times: ``now()`` is a clock that stops while a sample runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# About the time of one reference_work() call on a quiet host of the kind
# the benchmark was defined on; only a scale, so that reported times read
# close to measured ones when the host runs at that speed.
NOMINAL_S = 0.0001
# Wall time between two samples.  One sample takes about NOMINAL_S, so the
# sampling costs about half a percent of the run.
INTERVAL_S = 0.02
# Intervals shorter than this are corrected by the samples within a window
# of this width around their middle.
WINDOW_S = 1.0

clock = time.perf_counter


def reference_work() -> int:
    """Table lookups and xors whose values all stay below 512, so every int
    is one of the interpreter's cached small ints and nothing is allocated."""
    x = 1
    table = _TABLE
    for i in range(256):
        for j in range(8):
            x = table[x ^ i] ^ j
    return x


_TABLE = tuple((i * 167 + 13) & 255 for i in range(256))


def speeds(count: int) -> list[float]:
    """The speeds of ``count`` reference calls made one after another."""
    out = []
    for _ in range(count):
        start = clock()
        reference_work()
        out.append(NOMINAL_S / (clock() - start))
    return out


class HostSpeed:
    """Speed samples taken from a timer signal while it is started."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        # Seconds spent sampling so far.
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = clock()
        self.speeds += speeds(1)
        self.times.append(start)
        self.spent += clock() - start
        self._busy = False

    def now(self) -> float:
        """A clock that does not advance while a sample runs."""
        return clock() - self.spent

    def at_nominal(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start`` (a ``clock()`` reading),
        rescaled by the mean speed of the samples taken during it, or within
        WINDOW_S around its middle if it is shorter."""
        half = max(seconds, WINDOW_S) / 2
        middle = start + seconds / 2
        lo = bisect_left(self.times, middle - half)
        hi = bisect_right(self.times, middle + half)
        return seconds * statistics.fmean(self.speeds[lo:hi] or self.speeds)

    def mean_speed(self) -> float:
        """Run-wide mean speed, as a share of the nominal speed."""
        return statistics.fmean(self.speeds)
