"""A frozen reference kernel that samples how fast the machine is *now*.

On the 2-core sandbox identical work takes between 1.0x and ~1.7x as long
depending on what shares the core: the speed flips between a fast and a
slow mode every few milliseconds and the mix drifts over tens of seconds,
while CPU / wall stays at ~0.98 (so ``run.contended`` cannot see it) and
no statistic taken inside a 10-second run removes it.  What does is timing
a fixed slice of work of the same character *while the repeat runs* -- a
``SIGALRM`` every 20 ms runs one slice between two bytecodes of the
workload -- and scaling the repeat by what the slices took.  Measured on
one seed, four to six repeats per run: the run-to-run spread of the median
wall time fell from 8-21 % to 2-5 % (sim and live alike; a kernel run
only before and after each repeat got no lower than 5-9 %).

The kernel is a miniature of the program's own hot path -- a heap-driven
event loop over slotted events, per-site dict logs keyed by tuples,
frozenset values, sorted pruning -- driven by a fixed LCG, with its state
kept between slices so its working set stays warm or cold as the
workload's does.  It must never change: every normalised number is
relative to it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: one slice's wall seconds on the sandbox in its fast mode; a constant
#: that only fixes the unit, so that normalised seconds read like real ones
NOMINAL_SLICE_S = 0.00125
SLICE_EVENTS = 600
PERIOD_S = 0.020


class _Event:
    __slots__ = ("at", "site", "payload")

    def __init__(self, at: int, site: int, payload: tuple) -> None:
        self.at = at
        self.site = site
        self.payload = payload


class SpeedSampler:
    """Context manager: while entered, times one kernel slice per period.

    Main thread only (it owns ``SIGALRM`` and the real-time interval timer
    while entered).  After exit, ``busy_s`` is the wall time the slices
    took (to be taken off the region's wall time) and ``slowdown`` how much
    slower than nominal they ran (1.0 = nominal, ~1.6 = the slow mode).
    Built with ``periodic=False`` it leaves the region alone and takes a
    single slice at its end (for the profiled repeat).
    """

    def __init__(self, *, periodic: bool = True) -> None:
        self._periodic = periodic
        self._x = 12345
        self._seq = 0
        self._heap: list = []
        self._logs: list[dict] = [{} for _ in range(64)]
        for i in range(256):
            self._x = x = (self._x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(self._heap, (x % 1000, i, _Event(
                x % 1000, x % 64, (i, x))))
        self._seq = 256
        self._in_slice = False
        self._previous = None
        #: (start, end) of every slice taken since the last ``__enter__``
        self.slices: list[tuple[float, float]] = []

    def _slice(self, _signum: int = 0, _frame: object = None) -> None:
        if self._in_slice:
            return  # the last slice outlasted the period
        self._in_slice = True
        # the collector stays off: the kernel makes no cycles, and a
        # generation-2 pass would cost in proportion to the heap the
        # *workload* holds, which the kernel must not depend on
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        x, seq, heap, logs = self._x, self._seq, self._heap, self._logs
        try:
            for seq in range(seq, seq + SLICE_EVENTS):
                at, _, event = heapq.heappop(heap)
                log = logs[event.site]
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                key = (x % 64, x % 97)
                log[key] = frozenset((x % 7, x % 11, x % 13))
                if len(log) > 80:
                    for old in sorted(log)[:20]:
                        del log[old]
                heapq.heappush(heap, (at + x % 500, seq, _Event(
                    at, x % 64, (key, tuple(log.get(key, ()))))))
        finally:
            self._x, self._seq = x, seq + 1
            self.slices.append((start, time.perf_counter()))
            if collecting:
                gc.enable()
            self._in_slice = False

    def __enter__(self) -> "SpeedSampler":
        self.slices = []
        if self._periodic:
            self._previous = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc: object) -> None:
        if self._periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            self._slice()  # not periodic, or shorter than one period

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end in self.slices)

    @property
    def slowdown(self) -> float:
        return self.busy_s / len(self.slices) / NOMINAL_SLICE_S
