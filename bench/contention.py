"""Sample how much the host slows this process down while a call runs.

On a shared virtual machine the speed of a core drifts by a third over
minutes as other tenants load the physical core; CPU time drifts with
wall time, so it does not help. :class:`ContentionProbe` measures that
drift inside the timed call itself: a real-time interval timer interrupts
the call every ``INTERVAL_S`` and times a small fixed kernel: PCG64
normals, a complex Gram product and a solve at the program's M=50, then a
Python dict loop that takes about 0.6 of the kernel's time. The
call's own time, with the kernel's time taken out, over the kernel's mean
time during the call is the call's length in kernel times, which the
contention cancels from; times ``KERNEL_REF_S`` it reads as seconds at a
fixed reference speed.

The kernel runs in a signal handler, between bytecodes of the program, so
it shares the core with the call. It runs once untimed before each timed
run, so that its time does not depend on how much of the cache the
program's own working set evicted: a change to the program's memory use
must not move the kernel.

Why the mix: over blocks of consecutive calls, the log of the calls' time
against the log of the kernel's mean time had slopes of 1.3-1.8 on
mc-pilot and 1.4 on edge-cost231 for the numpy half alone (the program
slowed more than the kernel) and 0.8-1.05 and 0.9 for the Python half
alone (one 200-second trial per workload). Giving the Python half about
0.6 of the kernel's time gave 1.3, 1.1 and, on rates-limits, 0.9 in the
same trials, so a drift in contention moves ``wall_s`` by about a quarter
of what it moves the raw time, or less.

The probe assumes the program runs on one core, as it does with BLAS
pinned to one thread. A program that keeps the other core busy too
(worker processes or threads) slows the kernel by its own load, and the
corrected time then overstates the gain. Judge such a change by the times
as measured, which run.py reports beside ``wall_s``, and by
``run.cpu_util`` from the traced run.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
# imported here, not lazily by attribute access inside the signal handler:
# the handler may run while the program holds the import lock
from numpy.linalg import solve
from numpy.random import PCG64, Generator

INTERVAL_S = 0.02
# The kernel's fastest time, sampled within calls, on an uncontended core of
# a 2-vCPU KVM guest on a Xeon (Sapphire Rapids) host, numpy 2 / OpenBLAS.
KERNEL_REF_S = 0.65e-3

_EYE = np.eye(50)


def kernel() -> None:
    """A fixed piece of work, under a millisecond, that does not depend on
    the program."""
    h = Generator(PCG64(7)).standard_normal((50, 100)).view(np.complex128)
    solve(h @ h.conj().T + _EYE, h)
    acc: dict[int, float] = {}
    for j in range(2900):
        acc[j % 13] = acc.get(j % 13, 0.0) + j * 0.5


class ContentionProbe:
    """Kernel times sampled during calls."""

    def __init__(self):
        self.fastest = float("inf")  # over every call sampled so far, for the report
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()  # warm-up: fills the caches the program evicted
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._samples.append(end - timed)
        self._spent += end - start

    @contextmanager
    def sampling(self):
        """Sample the kernel through the block, at least once. The yielded
        dict holds, after the block, the kernel's mean time, the time the
        kernel took from the block and the number of samples."""
        self._samples, self._spent = [], 0.0
        out: dict[str, float] = {}
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        spent = self._spent
        if not self._samples:  # a call shorter than the interval
            self._sample()
        self.fastest = min(self.fastest, *self._samples)
        out.update(kernel_mean_s=statistics.fmean(self._samples),
                   kernel_spent_s=spent, samples=len(self._samples))

    @staticmethod
    def at_reference_speed(wall_s: float, sample: dict) -> float:
        """A call's time without the kernel's share, at the reference speed."""
        own = wall_s - sample["kernel_spent_s"]
        return own / sample["kernel_mean_s"] * KERNEL_REF_S
