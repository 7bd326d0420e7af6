"""Host speed probe: a fixed piece of work, timed on a timer signal all
through set-up and the measured passes, that puts times on one speed scale.

On a shared host a vCPU's speed changes by a factor of up to about 1.7, in
stretches that last from about a second to about a minute; one run can fall
wholly in a slow stretch and the next in a fast one, so no median over a run
removes it.  The probe's own time follows the same changes.  On a 2-vCPU
Xeon microVM, over four minutes of repeated operations, the log of an
operation's time followed the log of the probe's mean time around it with
correlation 0.74 to 0.98 and slope 0.8 to 1.3 for operations of 0.1 s and
longer, and dividing by the probe time cut the quartile spread of those
operations from 0.16-0.54 to 0.06-0.14 (a power of 1.1 to 1.4 of the probe
time did no better; a memory-bound probe did worse).  So an interval's wall
time, less the probe runs inside it, is scaled by
``PROBE_REF_S / mean probe time around the interval``: its time on a host
where the probe takes ``PROBE_REF_S``.

The probe runs in the signal handler, in the main thread between bytecodes,
every ``INTERVAL_S`` seconds: about 1.5 % of the run.  It touches nothing of
the program's and draws no random numbers, so artifacts are unchanged.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# Mean probe time on the reference host (2-vCPU Xeon microVM, Python 3.11).
PROBE_REF_S = 4.0e-4
# An operation shorter than the probe interval is scaled by the mean of the
# nearest samples, at least this many.
MIN_SAMPLES = 5

_VEC = np.linspace(0.0, 1.0, 24)


def probe_work() -> float:
    """The same mix the program spends its time in: interpreted arithmetic,
    float formatting and numpy calls on short arrays."""
    s = 0.0
    for i in range(400):
        s += math.sqrt(i + s * 1e-9)
    ",".join(["%.17g" % (i * 0.1 + s) for i in range(100)])
    a = _VEC
    for _ in range(30):
        a = np.sin(a) * 0.5 + float(a.sum()) * 1e-9
    return float(a[0])


class HostSpeedProbe:
    """Context manager: probe samples (start, duration) while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self._cum = [0.0]  # prefix sums of the durations
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_work()
        self.starts.append(t0)
        self._cum.append(self._cum[-1] + perf_counter() - t0)

    def __enter__(self) -> "HostSpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe time of the samples that started
        in [t0, t1], widened to the nearest MIN_SAMPLES."""
        i, j = self._window(t0, t1)
        n = len(self.starts)
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            i, j = max(0, i - 1), min(n, j + 1)
        if j == i:
            raise RuntimeError("host speed probe took no samples")
        return PROBE_REF_S * (j - i) / (self._cum[j] - self._cum[i])

    def scaled(self, t0: float, t1: float) -> float:
        """Time of the interval [t0, t1] less the probe runs that started in
        it, on the reference speed scale."""
        i, j = self._window(t0, t1)
        return ((t1 - t0) - (self._cum[j] - self._cum[i])) * self.factor(t0, t1)
