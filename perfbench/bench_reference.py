"""The host-speed reference of the repository benchmark.

The benchmark runs on a few vCPUs of a shared machine whose speed moves by
up to 2x within seconds and by 20-50% between minutes, as other tenants come
and go.  Each CPU-bound figure is therefore divided by the time of a fixed
reference loop timed beside the work it measures, and reported in units of
that loop (``ref``; ``kref`` is 1000 of them).  A faster program lowers its
figures in ``ref`` just as in seconds; a slower host slows the loop and the
program alike and cancels out.  NOTES.md gives the measurements behind this.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List

from repro.store import RunStore

#: Samples of the loop timed before and after each grid execution.
BURST = 50
#: Samples timed at each progress snapshot of a grid execution, and right
#: before and right after each timed store operation.
FLANK = 3
#: Virtual-time horizon of one loop call: about 1 ms of host time on a
#: 2-vCPU VM with Python 3.11.
HORIZON = 1500


class _Task:
    __slots__ = ("period", "count")

    def __init__(self, period: int) -> None:
        self.period = period
        self.count = 0


def reference_loop() -> Dict[int, int]:
    """A small discrete-event loop in the style of the simulator's kernel:
    a heap of ``(time, sequence, task)`` entries, slot objects and a dict."""
    tasks = [_Task(period) for period in (3, 5, 7, 11, 13)]
    heap = [(task.period, index, task) for index, task in enumerate(tasks)]
    sequence = len(heap)
    seen: Dict[int, int] = {}
    while heap:
        now, _, task = heapq.heappop(heap)
        task.count += 1
        seen[task.period] = seen.get(task.period, 0) + now % 5
        if now < HORIZON:
            sequence += 1
            heapq.heappush(heap, (now + task.period, sequence, task))
    return seen


def time_reference(samples: List[float], count: int = 1) -> None:
    """Time ``count`` calls of :func:`reference_loop`, appending each to ``samples``."""
    for _ in range(count):
        started = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - started)


def reference_s(samples: List[float]) -> float:
    """The reference time of a phase: the median of its samples."""
    return statistics.median(samples)


def flanking_reference() -> float:
    """The reference time right before or after one timed operation."""
    samples: List[float] = []
    time_reference(samples, FLANK)
    return reference_s(samples)


class ReferencedStore(RunStore):
    """A :class:`RunStore` that times the reference loop after each progress
    snapshot a campaign runner writes (at most one per 0.5 s), so the host's
    speed is sampled all through a grid execution, not only around it."""

    def __init__(self, path, samples: List[float]) -> None:
        super().__init__(path)
        self.samples = samples

    def save_progress(self, snapshot) -> None:
        super().save_progress(snapshot)
        time_reference(self.samples, FLANK)
