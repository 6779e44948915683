"""Speed probe: samples how fast the CPU runs while a workload runs.

On a shared host the same code runs up to about 1.6x slower for stretches of
0.2 s to a minute, which no number of repeats inside a 20 s run averages out.
``SpeedProbe`` measures that slowdown as it happens: an interval timer
(``SIGALRM``, no thread) interrupts the worker every ``INTERVAL_S`` and
times a fixed piece of work, a short interpreter loop and a few small numpy
calls, cold, right after the workload's own code.  Ops with a large code
footprint (a phase-diagram row, a spectral quadrature, an import) slow like
that cold call.  A tight loop that stays in cache (an SDE step) does not:
for it the probe runs a second, warm call at once, and a sample is the
geometric mean of the two.  An op's latency is scaled by the samples around
it, relative to the reference sample: the result is the op's latency on a
CPU running at the reference speed.  The probe's own time is subtracted
from every op it interrupts.

Python runs the handler between bytecodes of the main thread, never inside
a C call, so the probe cannot interleave with nmpo's numpy or LAPACK calls.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# Probes on each side of an op that set its speed, besides those inside it.
WINDOW_S = 0.1
# Fewest probes an op's speed is taken from.
MIN_PROBES = 9
# Share of those probes dropped at each end: a probe the scheduler
# interrupted says nothing about the CPU's speed.
TRIM = 0.2
# Median sample on the reference CPU (a shared 2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4) while a workload runs: cold only, and cold with warm.
NOMINAL_COLD_S = 3.35e-4
NOMINAL_TIGHT_S = 2.9e-4

_A = np.linspace(0.5, 1.5, 64).reshape(8, 8) + np.eye(8)
_B = np.linspace(-1.0, 1.0, 8)


def probe_work() -> float:
    """The fixed work the probe times."""
    s = 0.0
    for i in range(1200):
        s += i * 0.5
    for _ in range(10):
        x = np.linalg.solve(_A, _B)
        s += float((_A @ x).sum()) + float(np.abs(x).max())
    return s


class SpeedProbe:
    """Samples the probe every INTERVAL_S while installed, and once as it is
    installed and removed."""

    def __init__(self, tight_loop: bool = False):
        self.tight_loop = tight_loop
        self.nominal = NOMINAL_TIGHT_S if tight_loop else NOMINAL_COLD_S
        self.starts = array("d")
        self.durations = array("d")
        # Seconds spent in the probe so far; ops subtract what falls inside them.
        self.total = 0.0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        sample = t1 - t0
        if self.tight_loop:
            probe_work()
            t2 = perf_counter()
            sample = math.sqrt(sample * (t2 - t1))
            t1 = t2
        self.starts.append(t0)
        self.durations.append(sample)
        self.total += t1 - t0

    def __enter__(self):
        self._handler(None, None)
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._handler(None, None)

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference the CPU ran around [t0, t1].

        The mean of the samples from WINDOW_S before t0 to WINDOW_S after
        t1, widened to the MIN_PROBES nearest when there are fewer, without
        the fastest and slowest TRIM of them.
        """
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no speed probe ran")
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        while hi - lo < min(MIN_PROBES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        durations = sorted(self.durations[lo:hi])
        cut = int(TRIM * len(durations))
        return statistics.fmean(durations[cut:len(durations) - cut]) / self.nominal
