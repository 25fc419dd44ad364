"""Speed-normalised timing for a shared, noisy host.

On the 2-vCPU virtual machines this benchmark was built on, the same
single-threaded run takes anywhere from 1x to 1.9x its fastest time,
depending on what other tenants run on the same physical cores.  The load
changes over seconds to minutes, so neither the median nor the minimum of
a few repetitions is steady from one minute to the next.

The benchmark therefore times a fixed calibration kernel (numpy on small
arrays driven by a Python loop, the instruction mix of an IMEX step, but no
nemlab code) every PERIOD_S seconds while the workload runs, from a
SIGALRM handler in the workload's own process.  Each stretch of workload
time between two kernel samples is rescaled by KERNEL_REF_S over the mean
kernel time at its two ends.  The result is in reference seconds: the time
the workload would take on a core on which the kernel takes KERNEL_REF_S.
Time spent in the handler is left out.  Because the kernel never calls
nemlab, a change to nemlab moves the normalised time as it moves the raw
time at a fixed machine speed, as long as the load stays alike: work with
another instruction mix (large-array numpy, say) slows less under load
than the kernel, so compare.py leaves out pairs of runs whose kernel
medians differ too much.

Set-up (process start to the first call into nemlab) is mostly dynamic
loading and module execution, which the load slows less than it slows
the kernel.  Set-up is therefore rescaled by the first part of the same
set-up instead: the start of the interpreter and the import of numpy,
which precede everything nemlab or its inputs add.  A set-up of s seconds
whose first part took e seconds is ENV_REF_S * s / e reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

import numpy as np

KERNEL_REF_S = 5.0e-4   # kernel time on an unloaded core of the baseline host
ENV_REF_S = 0.15        # interpreter start + numpy import, same core
PERIOD_S = 0.1
_N = 97
_LOOPS = 60
_TRIES = 3


def _kernel_once() -> float:
    a = np.linspace(0.0, 1.0, _N)
    b = np.cos(a)
    t0 = time.perf_counter()
    for _ in range(_LOOPS):
        c = a[1:] - a[:-1]
        d = 0.5 * (b[1:] + b[:-1]) * c
        s = float(np.sum(d * d))
        a = a + 1e-12 * s
        b = np.sqrt(b * b + 1e-12)
    return time.perf_counter() - t0


def kernel() -> float:
    """Seconds the fixed calibration kernel takes right now.

    The fastest of a few back-to-back runs, so that a cold cache after the
    workload's large arrays, or an interrupt, does not read as a slow core.
    """
    return min(_kernel_once() for _ in range(_TRIES))


def setup_reference_seconds(setup_s: float, env_s: float) -> float:
    """A set-up whose interpreter-and-numpy part took env_s, in reference seconds."""
    return ENV_REF_S * setup_s / env_s


class SpeedSampler:
    """Samples the kernel before, during (every PERIOD_S) and after a block.

    Use as a context manager in the main thread; ``reference_seconds(t0,
    t1)`` then rescales a window [t0, t1] inside the block.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: List[Tuple[float, float, float]] = []  # (start, end, kernel_s)
        self._previous = None
        self._built_for = -1

    def _sample(self, *_):
        start = time.perf_counter()
        k = kernel()
        self.samples.append((start, time.perf_counter(), k))

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def handler_seconds(self, t0: float, t1: float) -> float:
        """Time the handler took inside [t0, t1]."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e, _ in self.samples)

    def _stretches(self):
        # the stretches between samples: starts, ends, weights and the
        # reference seconds before each one; rebuilt when samples change
        if self._built_for != len(self.samples):
            pairs = list(zip(self.samples, self.samples[1:]))
            self._starts = [end0 for (_, end0, _), _ in pairs]
            self._ends = [start1 for _, (start1, _, _) in pairs]
            self._weights = [KERNEL_REF_S / (0.5 * (k0 + k1)) for (_, _, k0), (_, _, k1) in pairs]
            self._before = [0.0]
            for a, b, w in zip(self._starts, self._ends, self._weights):
                self._before.append(self._before[-1] + (b - a) * w)
            self._built_for = len(self.samples)
        return self._starts, self._ends, self._weights, self._before

    def _cumulative(self, t: float) -> float:
        starts, ends, weights, before = self._stretches()
        j = bisect.bisect_right(starts, t) - 1
        if j < 0:
            return 0.0
        return before[j] + weights[j] * (min(t, ends[j]) - starts[j])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Workload time in [t0, t1], handler excluded, in reference seconds."""
        return self._cumulative(t1) - self._cumulative(t0)
