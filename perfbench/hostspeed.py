"""Host-speed scaling of every timing the benchmark reports.

On a shared host the same Python code runs up to 1.8x slower or faster
from one second to the next, on every vCPU at once, and process CPU
time slows with it, so the cause is the host, not time slicing.  Those
swings are far wider than any bound a regression check could use.

So the benchmark runs a fixed kernel next to the work it times and
scales each timing by ``REFERENCE_S / kernel time``: each op by the
mean of the kernel run just before it and the one just after it.  A
scaled time is the time the work would have taken on a host that runs
the kernel in exactly ``REFERENCE_S``; where the kernel takes that
long, scaled and wall-clock times agree.  The kernel is interpreter
dispatch, tuple indexing and dict lookups over small ints, the kind of
work clpslice's own loops do.  No object it makes outlives one step,
so that its time does not depend on what the program under test keeps
in memory.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the kernel's median time on a 2-vCPU x86-64 VM under CPython 3.11,
# so that scaled times there read close to wall-clock times.
REFERENCE_S = 0.010
KERNEL_STEPS = 90_000
_TABLE = tuple(i * 7919 % 211 for i in range(1024))
_WEIGHTS = {i: i * 31 % 97 for i in range(211)}


def kernel(steps: int = KERNEL_STEPS) -> int:
    total, weight = 0, _WEIGHTS.get
    for i in range(steps):
        total = (total + weight(_TABLE[i & 1023], 0)) & 127
    return total


class HostClock:
    """Runs the kernel on demand and keeps every time it took."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; its seconds."""
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    def median(self, runs: int) -> float:
        """Run the kernel ``runs`` times; the median of their seconds."""
        return statistics.median(self.sample() for _ in range(runs))

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` of work bracketed by kernel runs of ``before`` and
        ``after`` seconds, in reference-host seconds."""
        return seconds * REFERENCE_S * 2 / (before + after)
