"""How fast the host ran while a workload ran, sampled in the workload.

On a shared host the same code runs up to twice as slowly from one
second to the next, and not only because it waits for a core: other
tenants on the same hardware slow its own CPU time too.  A timer signal
therefore runs a fixed piece of reference work, which shares no code
with the program, every :data:`INTERVAL_S` of the process's CPU time,
in the middle of whatever the workload is doing, and times it with the
main thread's CPU clock.  The mean reference time over a stretch of the
workload, over :data:`REFERENCE_S`, is how slowly the host ran during
that stretch; the stretch's CPU time (less the reference work) divided
by it is its CPU time at reference speed.  The reference costs about 2%
of the CPU time.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Tuple

#: CPU time of the process between two reference samples.
INTERVAL_S = 0.02
REFERENCE_LOOPS = 1500
#: Mean time of one reference sample inside a workload on the idle host
#: the benchmark was defined on (a 2-vCPU Xeon VM, Python 3.11): the
#: speed at which normalized seconds are CPU seconds.
REFERENCE_S = 3.2e-4

#: Process CPU time, reference time and reference count at some instant.
Mark = Tuple[float, float, int]
#: The start of the process.
PROCESS_START: Mark = (0.0, 0.0, 0)


def reference_s() -> float:
    """CPU seconds of this thread spent on one piece of reference work.
    (The process CPU clock only advances by scheduler ticks while a CPU
    timer is armed, too coarse for work this short.)"""
    start = time.thread_time()
    table, total = {}, 0.0
    for i in range(REFERENCE_LOOPS):
        key = i % 97
        total += math.sqrt(i) * 0.5 + table.get(key, 0.0)
        table[key] = total % 7.0
    return time.thread_time() - start


class HostSpeed:
    """Samples :func:`reference_s` on ``SIGPROF`` between :meth:`start`
    and :meth:`stop`.  Signal handlers run in the main thread, so
    construct and start it there."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.total_s += reference_s()
            self.count += 1
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def mark(self) -> Mark:
        return (time.process_time(), self.total_s, self.count)

    def since(self, mark: Mark) -> Tuple[float, float]:
        """CPU seconds since ``mark`` without the reference work, and the
        same at reference speed (unscaled if no sample fell in between)."""
        cpu0, total0, count0 = mark
        reference = self.total_s - total0
        samples = self.count - count0
        cpu = time.process_time() - cpu0 - reference
        slowdown = reference / samples / REFERENCE_S if samples else 1.0
        return cpu, cpu / slowdown
