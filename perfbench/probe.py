"""Host-speed probe: times a fixed reference loop at regular moments of a run.

On a shared host the same code runs up to twice as slow from one second to
the next, and the mix of fast and slow stretches changes between runs.  A
SIGALRM timer interrupts the load every INTERVAL_S seconds of wall time, and
its handler times one reference loop (a fixed RK4 run on a 4x4 complex
system: small numpy operations and interpreter glue, like evanskit's inner
loop).  The samples say how fast the host was while a task ran, so a task's
time can be scaled to the speed at which one sample takes REF_SAMPLE_S.
The probe's own time is counted and taken out of every task's time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REF_STEPS = 500
# Seconds one reference loop takes on a quiet stretch of the reference host
# (2-core VM, Python 3.11, numpy 2.4); adjusted times are wall times at
# that speed.
REF_SAMPLE_S = 0.005

_A = (np.arange(16).reshape(4, 4) % 5 - 2.0) * (0.1 + 0.05j)
_Y0 = np.ones(4, complex)


def reference_loop(steps: int = REF_STEPS) -> complex:
    y, h = _Y0, 0.01
    for _ in range(steps):
        k1 = _A @ y
        k2 = _A @ (y + 0.5 * h * k1)
        k3 = _A @ (y + 0.5 * h * k2)
        k4 = _A @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return complex(y[0])


class SpeedProbe:
    """Context manager that samples the reference loop on a wall-clock timer."""

    def __init__(self):
        self.samples: list[float] = []   # seconds per reference loop
        self.spent = 0.0                 # seconds spent inside the handler
        self._old = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        reference_loop()  # warm up numpy's dispatch before the first sample
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def adjusted(self, raw_s: float, since: tuple[int, float]) -> tuple[float, float]:
        """(net seconds, seconds at reference speed) of an interval begun at `since`.

        Net seconds leave out the probe's own time.  The speed factor is the
        mean of the samples taken inside the interval; an interval too short
        to hold one uses the mean of all samples so far (there is always one,
        taken on entry).
        """
        n0, spent0 = since
        net = raw_s - (self.spent - spent0)
        inside = self.samples[n0:] or self.samples
        return net, net * REF_SAMPLE_S / statistics.fmean(inside)
