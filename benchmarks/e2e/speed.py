"""How fast the server's CPU runs right now, for normalising times.

The benchmark runs on a two-vCPU virtual machine whose host is shared.
Host contention slows a whole vCPU, by up to 2x and for minutes at a
time, and the guest cannot see it: no steal time is reported, and a
process's CPU time grows with its wall time.  Raw round trips measured
a few minutes apart therefore differ by far more than any regression
bound.

:class:`SpeedProbe` measures that slowdown while the benchmark runs.  A
thread pinned to the server's CPU times :func:`calibration_work`, a
fixed piece of interpreter work, in its own CPU time every 50 ms.  The
slowdown is that time over :data:`REFERENCE_S`, the same work's time on
an uncontended vCPU of the reference machine.  Every time the benchmark
reports is divided by the slowdown of the half-second it was measured
in, so it reads as on an uncontended reference machine, and runs made
under different contention agree.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import threading
import time

#: CPU time of one :func:`calibration_work` call on an uncontended vCPU
#: of the reference machine (a two-vCPU Intel Xeon virtual machine).
REFERENCE_S = 0.00030
PERIOD_S = 0.05
SLICE_S = 0.5


def calibration_work() -> int:
    """A fixed mix of the work the server's interpreter does: tuples,
    sets and dicts, sorting, ``repr`` and hashing."""
    rows = [(i % 17, i * 7 % 31) for i in range(600)]
    index: dict = {}
    for a, b in rows:
        index.setdefault(b, set()).add(a)
    text = repr(sorted((key, sorted(values)) for key, values in index.items()))
    return len(hashlib.sha256(text.encode()).hexdigest())


class SpeedProbe:
    """Slowdown samples ``(monotonic seconds, slowdown)`` taken by a
    thread pinned to *cpu* (unpinned when *cpu* is None)."""

    def __init__(self, cpu: int | None):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(cpu,), daemon=True)
        self._thread.start()

    def _run(self, cpu: int | None) -> None:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        while not self._stop.wait(PERIOD_S):
            started = time.thread_time()
            calibration_work()
            self.samples.append(
                (time.monotonic(), (time.thread_time() - started) / REFERENCE_S)
            )

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def over(self, start: float, end: float) -> float:
        """The median slowdown of the samples taken in ``[start, end]``
        (of all samples when none fall in it)."""
        times = [t for t, _ in self.samples]
        inside = self.samples[bisect.bisect_left(times, start):bisect.bisect_right(times, end)]
        return statistics.median(s for _, s in (inside or self.samples))

    def per_slice(self, start: float, end: float):
        """A function from a time in ``[start, end]`` to the median
        slowdown of its ``SLICE_S`` slice of that interval."""
        count = max(1, int((end - start) / SLICE_S))
        width = (end - start) / count
        slices = [self.over(start + k * width, start + (k + 1) * width) for k in range(count)]
        return lambda t: slices[min(count - 1, max(0, int((t - start) / width)))]
