"""Machine-speed probe: timings in seconds at a fixed reference speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds to minutes as other tenants load it; one run's
wall time then says as much about the neighbours as about the program.  While
a ``SpeedProbe`` is active, an interval timer interrupts the measured process
every ``PERIOD_S`` of wall time and runs a fixed reference loop twice: scalar
Python, small numpy vector operations and ``scipy`` quadrature of a Python
integrand, the mix the library runs.  It times the second pass, so that what
it measures is the machine's speed and not how much of the probe's working
set the workload has just evicted.  The *reference time* of a timed interval is its wall time, less the probe time
inside it, times the mean of ``REF_S / probe_s`` over the probes it contains
(at least the ``MIN_PROBES`` nearest): the time the interval would have taken
had the machine run at the speed at which the reference loop takes ``REF_S``.
A change to the program moves reference time as it moves wall time; a change
in the host's load moves it much less.

``REF_S`` is close to the loop's time on an idle core of the machine the
benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11), so reference
times there are close to the wall times of a quiet run.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import quad

PERIOD_S = 0.005
REF_S = 55e-6
MIN_PROBES = 5
_ARR = np.linspace(0.0, 5.0, 2048)


def _integrand(v):
    return v * math.exp(-v * v)


def reference_loop():
    s = 0.0
    for i in range(300):
        s += math.sqrt(i)
    for _ in range(2):
        s += float(np.log1p(np.exp(-_ARR)).sum())
        s += quad(_integrand, 0.0, 6.0, epsabs=1e-13, limit=50)[0]
    return s


class SpeedProbe:
    """Context manager: samples the machine's speed while it is active.

    The timer's handler runs on the main thread between bytecodes, so a probe
    that starts inside a timed interval also ends inside it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []  # the timed second pass
        self.spent: list[float] = []  # the whole probe, both passes

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_s(self, start, end):
        """Reference time of the wall-clock interval [start, end)."""
        n = len(self.starts)
        if n < MIN_PROBES:
            raise RuntimeError(f"only {n} speed probes were taken; need {MIN_PROBES}")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = (end - start) - sum(self.spent[lo:hi])
        if hi - lo < MIN_PROBES:
            lo = max(0, min((lo + hi - MIN_PROBES) // 2, n - MIN_PROBES))
            hi = lo + MIN_PROBES
        return net * statistics.fmean(REF_S / d for d in self.durations[lo:hi])
