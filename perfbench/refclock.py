"""A reference clock: the host's speed while a step runs, read from a fixed kernel.

The benchmark shares a few cores of a host whose speed swings by up to
2x within seconds, while the process sees no lost CPU time (its CPU time
equals its wall time).  So, while the benchmark runs, an interval timer
interrupts it every PERIOD_S and the signal handler times one run of a
fixed kernel.  A timed step is then reported as

    normalised seconds = (seconds - kernel seconds inside) * NOMINAL_S / (mean kernel seconds)

where the kernel seconds inside are those of the samples that fell
inside the step, and the mean is over the samples taken during the step (padded by
PAD_S on each side, so a short step still has samples).  That is the
time the step would take on a host that runs the kernel in NOMINAL_S.

The kernel is benchmark code, not program code, so a change to the
program leaves it alone.  It does what the program's hot paths spend
their time on at these sizes: numpy calls on tiny arrays, where the
call overhead is the work.  Of the kernels tried beside the workloads
(this one, pure-Python float arithmetic and number formatting, a
json/re/fractions mix, a 4 MB copy), it tracked the host's swings best:
across six processes whose raw times spread 8 % and 11 % (standard
deviation over mean, gradation checks and scalar presets), the times
normalised with it spread 1.9 % and 4.4 %; the pure-Python kernel gave
3.9 % and 6.2 %.  It calls nothing that the tracer wraps, and the
handler changes no program state, so the program's outputs are the
same with it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: seconds between samples
PERIOD_S = 0.02
#: samples this close to a step count for it
PAD_S = 0.1
#: about the kernel's time on the 2-vCPU host the benchmark was built on;
#: only a scale, so that results read in seconds
NOMINAL_S = 1.0e-4

_A = np.eye(3) + 0.01
_B = np.linspace(-1.0, 1.0, 8)


def _kernel() -> float:
    total = 0.0
    for _ in range(15):
        c = _A @ _A + _A
        total += float(c.sum()) + float(np.abs(_B).max())
    return total


class RefClock:
    """Samples the kernel's speed on a timer while the benchmark runs."""

    def __init__(self):
        #: start time of each sample (perf_counter) and its kernel time
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        self.kernel_s.append(time.perf_counter() - t0)
        self.at.append(t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, start: float, seconds: float) -> float:
        """The step that ran from ``start`` for ``seconds``, in nominal seconds."""
        end = start + seconds
        inside = sum(self.kernel_s[bisect.bisect_left(self.at, start):bisect.bisect_left(self.at, end)])
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_left(self.at, end + PAD_S)
        if hi - lo < 2:
            # the timer was held up around the step: take the two samples nearest its start
            lo = max(0, bisect.bisect_left(self.at, start) - 1)
            hi = min(lo + 2, len(self.at))
        mean_kernel_s = sum(self.kernel_s[lo:hi]) / (hi - lo)
        return (seconds - inside) * NOMINAL_S / mean_kernel_s
