"""The per-site application process (application subsystem).

Section IV-A: each site hosts one application process made of an
*application subsystem* that fires the pre-planned operation schedule
and a *message receipt subsystem* that reacts to the network.  In this
implementation the protocol object IS the message receipt subsystem
(wired to the network by the runner); :class:`Site` is the application
subsystem.

Execution is sequential per process, as for a real client thread:
operation k starts at ``max(planned time, completion of operation
k-1)``.  Writes complete immediately (the multicast is asynchronous);
local reads complete synchronously; remote reads block the process until
the (causally gated) remote return arrives.  A site that exhausts its
schedule flags itself finished; the simulation ends when every site is
finished *and* all in-flight messages have drained.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..core.netpolicy import BACKPRESSURE_DELAY_MS, BACKPRESSURE_LIMIT
from ..memory.store import WriteId
from ..workload.schedule import SiteSchedule
from .engine import Simulator

if TYPE_CHECKING:  # avoid a runtime cycle: core.base imports sim.engine
    from ..core.base import CausalProtocol
    from ..obs.tracer import Tracer

__all__ = ["Site"]


class Site:
    """Application subsystem executing one site's operation schedule."""

    def __init__(
        self,
        protocol: "CausalProtocol",
        schedule: SiteSchedule,
        sim: Simulator,
        *,
        on_operation: Optional[Callable[[int], None]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if protocol.site != schedule.site:
            raise ValueError(
                f"protocol is for site {protocol.site}, schedule for {schedule.site}"
            )
        self.protocol = protocol
        self.schedule = schedule
        # the schedule's columns, read by index as the operations run
        self._times = schedule.times
        self._variables = schedule.variables
        self._values = schedule.values
        self.sim = sim
        #: invoked with the site id as each operation *starts*; the
        #: runner uses it to open the metrics window after warm-up
        self.on_operation = on_operation
        #: optional tracer: one span per operation, covering a remote
        #: read's full blocked duration (None = untraced, zero overhead)
        self.tracer = tracer
        self._next_index = 0
        self.finished = len(schedule) == 0
        self.completed_ops = 0
        self._started = False
        self.crashed = False
        #: view-change fence: while held, no new operation may start
        self.held = False
        #: elastic membership: a retired site never runs again
        self.retired = False
        #: handle of the armed next-operation event (crash cancels it)
        self._op_event = None
        #: index of an operation currently blocked on a remote read
        #: (writes and local reads complete synchronously, so from any
        #: other event's perspective this is None unless a fetch is out)
        self._current_index: Optional[int] = None
        #: consecutive backpressure deferrals of the armed operation;
        #: capped by BACKPRESSURE_LIMIT so a stuck channel
        #: delays the schedule but can never starve it
        self._bp_defers = 0

    @property
    def site_id(self) -> int:
        return self.schedule.site

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first scheduled operation."""
        if self._started:
            raise RuntimeError(f"site {self.site_id} already started")
        self._started = True
        if not self.finished:
            # a joiner starts mid-run: planned times before its admission
            # collapse to "as soon as possible"
            self._op_event = self.sim.schedule_at(
                max(self._times[0], self.sim.now), self._execute_next)

    # ------------------------------------------------------------------
    # crash-recovery (see repro.sim.crash)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Freeze the schedule: the pending op event dies with the process.

        An operation blocked on a remote read stays noted in
        ``_current_index`` — its continuation is lost, so :meth:`recover`
        re-issues that operation from scratch.
        """
        self.crashed = True
        if self._op_event is not None:
            self._op_event.cancel()
            self._op_event = None

    def recover(self) -> None:
        """Resume the schedule after catch-up completed.

        The interrupted remote read (if any) re-executes under the same
        op_index; subsequent operations fire at ``max(planned, now)`` as
        usual.
        """
        if not self.crashed:
            raise RuntimeError(f"site {self.site_id} is not crashed")
        self.crashed = False
        if self.finished:
            return
        if self._current_index is not None:
            self._next_index = self._current_index
            self._current_index = None
        if self.held:
            return  # release() re-arms once the view change completes
        start = max(self._times[self._next_index], self.sim.now)
        self._op_event = self.sim.schedule_at(start, self._execute_next)

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def hold(self) -> None:
        """View-change fence: stop starting new operations.

        An armed (not yet fired) operation is un-scheduled; an operation
        already blocked on a remote read stays blocked — the fence does
        not wait for fetches (see ``CausalProtocol.buffered_count``).
        """
        if self.held:
            return
        self.held = True
        if self._op_event is not None:
            self._op_event.cancel()
            self._op_event = None

    def release(self) -> None:
        """Lift the fence and re-arm the next operation, if any."""
        if not self.held:
            return
        self.held = False
        if (not self._started or self.finished or self.crashed
                or self.retired or self._current_index is not None
                or self._op_event is not None):
            return
        self._op_event = self.sim.schedule_at(
            max(self._times[self._next_index], self.sim.now),
            self._execute_next)

    def retire(self) -> None:
        """The site left the view: its remaining schedule is void."""
        self.retired = True
        self.finished = True
        if self._op_event is not None:
            self._op_event.cancel()
            self._op_event = None

    # ------------------------------------------------------------------
    def _execute_next(self) -> None:
        self._op_event = None
        # transport backpressure: while this site's outbound channels
        # have windowed-out backlogs, delay the next operation instead
        # of piling more onto the queues — bounded, so the schedule is
        # delayed but never starved
        if self.protocol.backpressured:
            if self._bp_defers < BACKPRESSURE_LIMIT:
                self._bp_defers += 1
                self.protocol.ctx.network.count_backpressure_delay(self.site_id)
                self._op_event = self.sim.schedule(
                    BACKPRESSURE_DELAY_MS, self._execute_next)
                return
        self._bp_defers = 0
        index = self._next_index
        self._next_index += 1
        self._current_index = index
        var = self._variables[index]
        value = self._values[index]  # None: a read
        if self.on_operation is not None:
            self.on_operation(self.site_id)
        tracer = self.tracer
        if tracer is None:
            if value is not None:
                self.protocol.write(var, value, op_index=index)
                self._operation_done()
            else:
                def _on_read(value: object, write_id: Optional[WriteId],
                             was_remote: bool) -> None:
                    self._operation_done()
                self.protocol.read(var, _on_read, op_index=index)
            return
        # traced path: the op span is the causal parent of every message
        # the protocol sends while the operation executes synchronously;
        # a remote read's span stays open until its RM completes it
        op_id = tracer.op_start(self.site_id, self.sim.now,
                                write=value is not None, var=var, index=index)
        if value is not None:
            try:
                self.protocol.write(var, value, op_index=index)
            finally:
                tracer.op_finish(op_id, self.sim.now)
                tracer.op_detach()
            self._operation_done()
        else:
            def _on_traced_read(value: object, write_id: Optional[WriteId],
                                was_remote: bool) -> None:
                tracer.op_finish(op_id, self.sim.now, remote=was_remote)
                self._operation_done()
            try:
                self.protocol.read(var, _on_traced_read, op_index=index)
            finally:
                tracer.op_detach()

    def _operation_done(self) -> None:
        """Completion continuation: arm the next operation or finish."""
        if self.crashed:
            # a continuation surviving a crash would double-drive the
            # schedule after recovery; stale RMs are dropped upstream,
            # so this is purely defensive
            return
        self._current_index = None
        self.completed_ops += 1
        if self._next_index >= len(self._times):
            self.finished = True
            return
        if self.held:
            return  # release() re-arms once the view change completes
        start = max(self._times[self._next_index], self.sim.now)
        self._op_event = self.sim.schedule_at(start, self._execute_next)
