"""The host's pace: how fast it runs a fixed pure-Python kernel right now.

A shared host changes speed by up to about 1.8x, in spells that last
from a tenth of a second to minutes; a process's CPU time changes just
as much as its wall time.  A wall-clock figure of one run therefore
says as much about the spells it happened to get as about the program.

:class:`Pace` runs a small fixed kernel at a steady interval on a
sampler thread while the benchmark measures, and keeps the kernel's
speed at each sample.  :meth:`Pace.factor` is the mean of those speeds
over an interval, relative to :data:`REFERENCE_KERNEL_S`; multiplying a
wall time by it gives the time the same work takes at the reference
pace.  The kernel belongs to the benchmark, so a change to the program
cannot change it.

The sampler needs the GIL to run the kernel, so it runs while the
program waits and costs it about ``kernel / SAMPLE_EVERY_S`` (about
1.5 %) of its time.  While sampling, the process is pinned to one CPU:
the host's CPUs need not run at the same speed, and the sampler must
measure the one the program runs on.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

#: Seconds between two samples.
SAMPLE_EVERY_S = 0.03

#: The kernel's time at the reference pace, about what the host this
#: benchmark was built on (2 vCPU x86_64, CPython 3.11) takes in its
#: fast spells.  It only sets the scale of the paced figures.
REFERENCE_KERNEL_S = 0.0004

KERNEL_ITERATIONS = 3000


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    table: dict = {}
    s = 0
    for i in range(iterations):
        table[i & 255] = s
        s = (s * 31 + i) & 0xFFFFFFFF
    return s


class Pace:
    """Samples the kernel's speed on a thread between :meth:`start` and :meth:`stop`.

    ``times`` holds each sample's midpoint (``time.perf_counter_ns``)
    and ``speeds`` the kernel's speed there, relative to the reference
    pace (1.0 = reference, 0.5 = twice as slow).
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.times: list[int] = []
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "Pace":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        os.sched_setaffinity(0, {min(self._affinity)})
        self.sample()
        self._thread.start()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
        self.sample()
        os.sched_setaffinity(0, self._affinity)

    def sample(self) -> None:
        clock = time.perf_counter_ns
        t0 = clock()
        kernel()
        t1 = clock()
        self.times.append((t0 + t1) // 2)
        self.speeds.append(REFERENCE_KERNEL_S * 1e9 / (t1 - t0))

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(self.every_s):
            self.sample()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Mean speed of the samples taken between ``start_ns`` and ``end_ns``.

        With no sample there, the nearest sample's speed.  Raises
        ``ValueError`` when there are no samples at all.
        """
        if not self.speeds:
            raise ValueError("no pace samples")
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        if lo < hi:
            window = self.speeds[lo:hi]
            return sum(window) / len(window)
        nearest = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
            key=lambda i: abs(self.times[i] - (start_ns + end_ns) // 2),
        )
        return self.speeds[nearest]
