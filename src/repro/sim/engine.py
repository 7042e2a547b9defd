"""Discrete-event simulation kernel.

The paper's original testbed drives protocol processes with JDK-8
``ScheduledExecutorService`` timers over real TCP sockets.  Here the same
semantics (timed operation schedules, asynchronous message delivery over
reliable FIFO channels) are reproduced with a deterministic discrete-event
simulator: a priority queue of timestamped events, a simulated clock in
milliseconds, and total-order tie-breaking so that two runs with the same
seed are bit-for-bit identical.

The kernel is deliberately minimal: everything domain-specific (channels,
processes, protocols) is layered on top via callbacks.

Hot-path layout (see docs/architecture.md, "Hot path & performance
model"): the heap holds two entry shapes, both ordered by C-level tuple
comparison on their unique ``(time, seq)`` prefix.  A cancellable event
is ``(time, seq, event)`` with :class:`ScheduledEvent` a ``__slots__``
record; a call nobody cancels (one message delivery) is posted as
``(time, seq, None, fn, src, dst, payload)`` and allocates nothing but
that tuple.  Cancellation is lazy with *bounded* garbage — cancelled
entries are tombstones counted by the kernel and compacted out once
they outnumber live entries (compaction is deterministic: the surviving
``(time, seq)`` keys are a total order, so ``heapify`` rebuilds the
same heap in both runs of a double-run diff).
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Any, Callable, Optional

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]

#: queues smaller than this are never compacted — the scan costs more
#: than the tombstones
_COMPACT_MIN_QUEUE = 64

#: a heap entry: ``(time, seq, ScheduledEvent)`` or, posted,
#: ``(time, seq, None, fn, src, dst, payload)``
_Entry = tuple[Any, ...]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel.

    Examples: scheduling into the past, running a simulator that was
    already stopped with an error, or exceeding the configured event
    budget (a runaway-protocol guard for tests).
    """


class ScheduledEvent:
    """A pending callback in the event queue.

    Ordering is ``(time, seq)``: events fire in timestamp order, with the
    insertion sequence number breaking ties deterministically.  The
    callback does not participate in ordering.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_sim", "_queued")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        _sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sim = _sim
        self._queued = _sim is not None

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Cancelling an event still in the queue leaves a tombstone; the
        owning simulator counts tombstones and compacts the heap when
        they exceed half the queue (cancel-heavy fault plans — e.g.
        retransmit timers under chaos — would otherwise grow the heap
        without bound).
        """
        if not self.cancelled:
            self.cancelled = True
            if self._queued and self._sim is not None:
                self._sim._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return (f"ScheduledEvent(t={self.time!r}, seq={self.seq}, "
                f"callback={self.callback!r}, {state})")


class Simulator:
    """Deterministic discrete-event simulator with a millisecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("fires at t=5ms"))
        sim.run()

    The clock only advances when events are popped; callbacks may schedule
    further events (at or after the current time).  ``run`` processes
    events until the queue drains, a time horizon is reached, or the event
    budget is exhausted.
    """

    def __init__(self, *, max_events: Optional[int] = None) -> None:
        #: heap of entries (see ``_Entry``) — tuple comparison never
        #: reaches index 2 because (time, seq) is unique
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        #: current simulated time in milliseconds — a plain attribute
        #: (every clock read on the hot path is one load), written only
        #: by the kernel (tests/test_sim_engine.py scans ``src/`` for
        #: any other write)
        self.now = 0.0
        self._processed = 0
        self._max_events = max_events
        self._running = False
        #: cancelled events still sitting in the heap
        self._tombstones = 0
        #: lifetime count of tombstone compactions (always-on int — the
        #: compact path is rare; read by the metrics registry at quiescence)
        self.compactions = 0
        #: optional per-event observer ``(time, pending_count)`` — used
        #: by ``HeartbeatReporter`` (progress lines: event throughput,
        #: queue depth).  Purely passive; None costs one branch per event.
        #: Install before calling :meth:`run` — the dispatch loop reads
        #: it once at entry, so a swap from inside a callback only takes
        #: effect on the next ``run()``/``step()``.
        self.observer: Optional[Callable[[float, int], None]] = None

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled ones)."""
        return len(self._queue) - self._tombstones

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already queued for the current instant (FIFO at equal
        timestamps).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``time`` ms."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before current time t={self.now!r}"
            )
        seq = next(self._seq)
        ev = ScheduledEvent(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def post(self, time: float, fn: Callable[[Any, Any, Any], None],
             src: Any, dst: Any, payload: Any) -> None:
        """Call ``fn(src, dst, payload)`` at absolute time ``time`` ms.

        The per-message form of :meth:`schedule_at` for a call nobody
        cancels: no handle, no :class:`ScheduledEvent`, no closure — one
        heap tuple.  It draws its ``seq`` from the same counter, so it
        orders, counts against ``max_events`` and reaches ``observer``
        exactly as the equivalent ``schedule_at`` would.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before current time t={self.now!r}"
            )
        heapq.heappush(self._queue,
                       (time, next(self._seq), None, fn, src, dst, payload))

    # ------------------------------------------------------------------
    # tombstone accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """One queued event turned into a tombstone; maybe compact."""
        self._tombstones += 1
        if (self._tombstones * 2 > len(self._queue)
                and len(self._queue) >= _COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (deterministic: the
        surviving (time, seq) keys are unique, so heapify's result is a
        pure function of the surviving set).

        Mutates the queue list in place — ``run()`` holds a local alias
        to it across callbacks, and compaction can fire mid-callback via
        ``cancel()``.
        """
        self._queue[:] = [item for item in self._queue
                          if item[2] is None or not item[2].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        queue = self._queue
        while queue:
            item = heapq.heappop(queue)
            ev = item[2]
            if ev is not None:
                ev._queued = False
                if ev.cancelled:
                    self._tombstones -= 1
                    continue
            self.now = item[0]
            self._processed += 1
            if self._max_events is not None and self._processed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events}); "
                    "likely a protocol livelock"
                )
            if self.observer is not None:
                self.observer(item[0], len(queue))
            if ev is None:
                item[3](item[4], item[5], item[6])
            else:
                ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the final simulated time.  When ``until`` is given, events
        with timestamps strictly greater than it are left queued and the
        clock is advanced to ``until``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # the cyclic collector is paused for the run: the simulator makes
        # no reference cycles (tests/test_sim_engine.py runs every
        # protocol under gc.DEBUG_SAVEALL and finds no garbage), so its
        # passes only re-walk the young, still-live log records and
        # messages; reference counting frees everything else
        collecting = gc.isenabled()
        gc.disable()
        # the dispatch loop is deliberately inlined (vs calling step())
        # and binds hot names to locals: this loop IS the per-event cost
        # floor of every simulation.  ``processed`` lives in a local and
        # is written back in the finally (callbacks never read it
        # mid-run); ``observer`` is read once at entry (see its docs).
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        observer = self.observer
        processed = self._processed
        try:
            while queue:
                head = queue[0]
                ev = head[2]
                if ev is not None and ev.cancelled:
                    pop(queue)
                    ev._queued = False
                    self._tombstones -= 1
                    continue
                batch_until = head[0]
                if until is not None and batch_until > until:
                    break
                # batch: every event at this exact timestamp is known to
                # be inside the horizon, so the until-check and clock
                # write happen once per timestamp, not once per event
                self.now = batch_until
                while queue and queue[0][0] == batch_until:
                    item = pop(queue)
                    ev = item[2]
                    if ev is not None:
                        ev._queued = False
                        if ev.cancelled:
                            self._tombstones -= 1
                            continue
                    processed += 1
                    if max_events is not None and processed > max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events}); "
                            "likely a protocol livelock"
                        )
                    if observer is not None:
                        observer(batch_until, len(queue))
                    if ev is None:
                        item[3](item[4], item[5], item[6])
                    else:
                        ev.callback()
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._processed = processed
            self._running = False
            if collecting:
                gc.enable()
