"""Host-speed normalisation for the timed pass.

This host's speed swings with load from outside the machine: one fixed
loop can take twice as long from one second to the next, and CPU time
tracks wall time, so ``process_time()`` removes nothing.  The timed pass
therefore runs a fixed calibration kernel at scheduler-callback
boundaries and scales every program interval by how fast the kernel ran
around it:

    normalised = raw * kernel_ref / median(the 5 kernel samples nearest it)

``kernel_ref`` is frozen in ``BENCHMARK.json`` (``--kernel-ref-us``), so
parent and change are normalised by the same constant.  Kernel time is
never part of a program interval.
"""

from __future__ import annotations

from array import array
from statistics import median
from time import perf_counter

#: iterations of the calibration kernel: about 0.5-1 ms on the reference host
KERNEL_ITERS = 5000

#: a callback takes an extra sample once this long has passed since the last
SAMPLE_EVERY_S = 0.02

#: kernel samples whose median scales one program interval
WINDOW = 5


def kernel(n: int = KERNEL_ITERS) -> int:
    """The calibration kernel: pure-Python integer arithmetic.

    Ints are never tracked by the cyclic garbage collector, so the loop
    allocates nothing that could trigger a collection belonging to the
    program.
    """
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFF
    return x


class SpeedClock:
    """A timeline of kernel samples; program intervals are the gaps.

    Sample ``i`` spans ``[starts[i], ends[i]]``; gap ``i`` is the program
    time between sample ``i`` and sample ``i + 1``.  Times are kept in
    ``array('d')`` so taking a sample allocates no tracked object either.
    """

    def __init__(self, kernel_ref_s: float) -> None:
        if kernel_ref_s <= 0:
            raise ValueError("kernel_ref must be positive")
        self.kernel_ref_s = kernel_ref_s
        self.starts = array("d")
        self.ends = array("d")

    def sample(self) -> int:
        """Time one kernel run now; returns the sample's index."""
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        return len(self.ends) - 1

    def maybe_sample(self) -> None:
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def kernel_seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def gap(self, i: int) -> tuple[float, float]:
        """``(raw, normalised)`` seconds of program time in gap ``i``."""
        raw = self.starts[i + 1] - self.ends[i]
        n = len(self.ends)
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        hi = min(n, lo + WINDOW)
        speed = median(self.ends[j] - self.starts[j] for j in range(lo, hi))
        return raw, raw * self.kernel_ref_s / speed

    def span(self, first: int, last: int) -> tuple[float, float]:
        """``(raw, normalised)`` program time from sample ``first`` to
        sample ``last``, kernel time excluded."""
        raw = norm = 0.0
        for i in range(first, last):
            r, n = self.gap(i)
            raw += r
            norm += n
        return raw, norm
