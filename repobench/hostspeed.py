"""Host-speed normalisation of the end-to-end times.

The 2-vCPU host this benchmark is sized for is shared, and as other
tenants load the machine the same Python code runs up to 1.6x slower or
faster, in spells from under a second to several minutes long. The
median pass times of ten 20-second runs spread (IQR over median) by
0.12-0.28 there, far past any useful bound. So each timed region is
reported in *reference seconds*: while it runs, a ``SIGPROF`` handler
runs a fixed pure-Python kernel every ``PERIOD_S`` of process CPU time,
and the region's wall time minus the handler's own time is scaled by
``REF_KERNEL_S`` over the kernel's mean duration. The kernel runs on
the same core in the same moments as the program, so a spell that slows
one slows the other alike, and the same runs spread by 0.01-0.06 in
reference seconds.

A reference second is a second on a host that runs the kernel in
exactly ``REF_KERNEL_S``. The kernel does not depend on ``repro``, so a
change that makes the program faster lowers the scaled time by the same
factor as the raw one.

``SIGPROF`` rather than ``SIGALRM``, because the program's serial cell
timeout owns ``SIGALRM``.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

PERIOD_S = 0.05
REF_KERNEL_S = 0.001
KERNEL_STEPS = 1500
_EMPTY_SET = (0,) * 8


def kernel(table: list, steps: int = KERNEL_STEPS) -> int:
    """Fixed work: tag lookups in a 64-set, 8-way ``table`` over an LCG stream.

    The table is cleared first, so every call does the same work. No
    container is allocated, so it never triggers a garbage collection.
    """
    for ways in table:
        ways[:] = _EMPTY_SET
    x = 12345
    hits = 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 8) & 0x3FFF
        ways = table[addr & 63]
        tag = addr >> 6
        if tag in ways:
            hits += 1
        else:
            ways[i & 7] = tag
    return hits


class Sampler:
    """Kernel samples taken while one timed region runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # handler time inside the region
        self._busy = False
        self._table = [list(_EMPTY_SET) for _ in range(64)]

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside the kernel is dropped
            return
        self._busy = True
        start = clock()
        kernel(self._table)
        end = clock()
        self.samples.append(end - start)
        self.spent += end - start
        self._busy = False

    def time(self, call):
        """Run ``call()`` with the sampler on and return its result.

        One sample is taken up front, so even a region shorter than
        ``PERIOD_S`` has one.
        """
        self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    @property
    def scale(self) -> float:
        """Reference seconds per host second during the region."""
        return REF_KERNEL_S / statistics.fmean(self.samples)

    def reference(self, wall: float) -> float:
        """``wall`` (which contains the region) less the samples, in reference seconds."""
        return (wall - self.spent) * self.scale
