"""Wall-clock timing corrected for the speed of a shared host.

On a shared 2-core host the same simulation can take 0.08 s or 0.15 s
depending on what other tenants run, and the slow spells last seconds to
minutes, so medians of raw wall time move by 10 to 40 % between runs of
identical code.  The clock therefore times a small fixed reference kernel
from a SIGALRM handler every SAMPLE_EVERY_S, in the benchmark's own process
and thread; each sample warms the kernel up before timing it.  The kernel
does the program's kind of work on its own data: a small symmetric
eigensolve and propagation, a cumulative remap with searchsorted, a
dataclass copy and scalar math.  The time of an interval is its wall time
minus the time the handler spent, scaled by NOMINAL_KERNEL_S / (mean kernel
time inside the interval): seconds on a host where the kernel takes
NOMINAL_KERNEL_S.  The raw wall time is kept alongside.  On 8 one-round
runs each, this cut the spread (interquartile range over median) from 12 %
to 3 % on observe_1c and from 9 % to 3 % on drive_hold; a kernel of 4x4
eigensolves alone tracked the host much worse (11 % and 5 %).
"""
from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass, replace

import numpy as np

# timed kernel on the reference host (2 vCPUs, Python 3.11.7, numpy 2.4.6)
# when nothing else runs; it only fixes the unit
NOMINAL_KERNEL_S = 5.0e-4
SAMPLE_EVERY_S = 0.05
WARMUP, TIMED = 3, 8

_E = np.linspace(0.0, 1.0, 6)
_V = np.array([3.0, 1.0, 2.0, 5.0, 4.0])


@dataclass(frozen=True)
class _State:
    c: np.ndarray
    total: float


def reference_kernel(n: int) -> float:
    acc = 0.0
    s = _State(np.arange(5.0), 1.0)
    for k in range(n):
        A = (np.diag(-2.0 - 0.01 * k + np.zeros(5)) + np.diag(np.ones(4), 1)
             + np.diag(np.ones(4), -1))
        lam, q = np.linalg.eigh(A)
        x = q @ (np.exp(lam) * (q.T @ _V))
        edges = np.concatenate([[0.0], _E[1:] ** 3])
        cum = np.cumsum(x * np.diff(edges))
        y = np.where(x > 0.0, x, 0.0).sum() + cum[-1] + np.searchsorted(edges, 0.37 + 0.01 * k)
        s = replace(s, c=s.c.copy(), total=s.total + float(y))
        acc += math.sqrt(abs(s.total)) + math.asinh(y) + float(np.interp(0.3, _E, _E**2))
    return acc


class HostClock:
    """Samples the reference kernel on a timer while started."""

    def __init__(self):
        self.t0: list[float] = []      # start of each sample
        self.busy: list[float] = []    # its duration, warm-up included
        self.kernel: list[float] = []  # its timed kernel

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        reference_kernel(WARMUP)
        t1 = time.perf_counter()
        reference_kernel(TIMED)
        t2 = time.perf_counter()
        self.t0.append(t)
        self.busy.append(t2 - t)
        self.kernel.append(t2 - t1)

    def start(self):
        self._on_alarm(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, a: float, b: float) -> tuple[float, float]:
        """(corrected, raw) seconds of the interval [a, b] of perf_counter.

        Raw is the wall time less the handler's own time.  An interval too
        short to hold a sample borrows the four samples nearest to it.
        """
        # numpy runs signal handlers while it converts a list, so take
        # equal-length copies first (a list slice runs none)
        n = len(self.kernel)
        t0 = np.array(self.t0[:n])
        busy = np.array(self.busy[:n])
        kernel = np.array(self.kernel[:n])
        inside = (t0 >= a) & (t0 < b)
        raw = (b - a) - float(busy[inside].sum())
        if not inside.any():
            inside = np.argsort(np.abs(t0 - 0.5 * (a + b)))[:4]
        return raw * NOMINAL_KERNEL_S / float(kernel[inside].mean()), raw
