"""Host-speed reference: times measured on a shared host, scaled to one speed.

The 2-vCPU hosts this benchmark runs on change speed by up to 1.6x, over
milliseconds as well as minutes, in CPU time as well as in wall time, because
other tenants share the cores.  While a pass runs, a timer signal interrupts
it every ``EVERY_S`` seconds of CPU time and times a short, fixed piece of
pure-Python work (``reference``).  Each timed call is then rescaled by the
reference times taken during it, or, for a call too short to hold ``WINDOW``
of them, by the ``WINDOW`` nearest its midpoint:

    scaled = measured * mean(NOMINAL_S / r for r in the middle half of those times)

A scaled time is the time the call would have taken had the host run the
reference in ``NOMINAL_S`` throughout.  A change to lie_ncg moves
``measured`` and not the reference, so it moves scaled times by the same
share as measured ones.  The time spent in the signal handler is left out
of ``measured``.  The reference (built on oracle.py) must not change
while figures are compared.  The containers it creates are freed before it
returns, so it leaves the garbage collector's allocation count as it was.
"""

import bisect
import signal
from array import array
from time import perf_counter

import oracle

# About the median time of ``reference`` on the host of the first baseline
# (2-vCPU Intel Xeon 2.1 GHz shared VM, Python 3.11.7).
NOMINAL_S = 0.0009
EVERY_S = 0.05
WINDOW = 8

_ALGEBRA = None


def _algebra():
    """A fixed non-abelian 3-dimensional Lie algebra over F_3 (26 graph vertices)."""
    global _ALGEBRA
    if _ALGEBRA is None:
        f = oracle.GF(3)
        # [x, y] = z, [x, z] = y + z, [y, z] = 0
        table = {(0, 1): (0, 0, 1), (0, 2): (0, 1, 1), (1, 2): (0, 0, 0)}
        _ALGEBRA = oracle.Algebra(f, 3, table, "xyz")
        if not _ALGEBRA.is_jacobi():
            raise AssertionError("reference algebra breaks the Jacobi identity")
    return _ALGEBRA


def reference():
    """Time, in seconds, of building the non-commuting graph of a fixed
    algebra with the benchmark's own code: field arithmetic, tuples, dicts
    and bit rows, the mix lie_ncg itself runs."""
    alg = _algebra()
    start = perf_counter()
    labels, rows = alg.graph()
    elapsed = perf_counter() - start
    if len(rows) != 26:
        raise AssertionError("reference graph has the wrong order")
    return elapsed


class Pacer:
    """Reference times, when they were taken, and the scaling they give."""

    def __init__(self):
        # clock reading and time of each reference, interleaved; one extend()
        # per reference, so a budget alarm cannot leave them out of step
        self.readings = array("d")
        self.spent = 0.0         # seconds spent in the signal handler

    @property
    def ref(self):
        return self.readings[1::2]

    def _sample(self, signum, frame):
        start = perf_counter()
        try:
            self.readings.extend((start, reference()))
        finally:
            self.spent += perf_counter() - start

    def clock(self):
        """perf_counter() less the time spent in the signal handler."""
        return perf_counter() - self.spent

    def start(self):
        """Take a reference every EVERY_S seconds of CPU time until ``stop``."""
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def take(self, count=1):
        """Take ``count`` references now, outside any timed call."""
        for _ in range(count):
            self.readings.extend((perf_counter(), reference()))

    def factors(self, calls):
        """The scale factor of each (start, duration) in ``calls``."""
        at, ref = self.readings[0::2], self.readings[1::2]
        n = len(at)
        out = []
        for start, duration in calls:
            lo, hi = bisect.bisect(at, start), bisect.bisect(at, start + duration)
            if hi - lo < WINDOW:
                mid = bisect.bisect(at, start + duration / 2)
                lo = max(0, min(mid - WINDOW // 2, n - WINDOW))
                hi = min(n, lo + WINDOW)
            f = sorted(NOMINAL_S / r for r in ref[lo:hi])
            quarter = len(f) // 4
            middle = f[quarter:len(f) - quarter]
            out.append(sum(middle) / len(middle))
        return out
