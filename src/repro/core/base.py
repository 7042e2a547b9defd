"""Protocol framework: context, base class, pending buffers, registry.

Every protocol implements the paper's process model (Section IV-A): an
*application subsystem* calls :meth:`CausalProtocol.write` and
:meth:`CausalProtocol.read`, while the *message receipt subsystem* is the
:meth:`CausalProtocol.on_message` entry point invoked by the network.

The base class centralizes the machinery all four protocols share:

* the pending-SM buffer with **dependency-indexed wakeups** — every
  activation gate here is a pure, monotone function of the local
  ``applied`` array, stated once as a *blocker* hook: ``None`` when the
  gate holds, else the first ``(writer, threshold)`` pair it is waiting
  on (see :mod:`repro.core.activation`).  A blocked message registers
  that pair and is only re-tested when ``applied[writer]`` crosses the
  threshold.  This replaces a full fixpoint re-scan (O(P) gate tests
  per application, O(P^2) per delivery burst) while activating the
  exact same messages in the exact same order — see ``_drain`` and
  docs/architecture.md, "Hot path & performance model".  The re-scan
  needs no second implementation: a hook answering
  :data:`~repro.core.activation.RETEST` puts its entry back on every
  pass, so the same drain with every blocked answer turned into
  ``RETEST`` *is* the re-scan, and that is what the equivalence
  property test compares whole-run traces against.  An arrival that
  is ready when nothing is queued skips the buffer altogether
  (``on_message``), which at the paper's op gaps is nearly all of them;
* the remote-fetch state machine (issue FM, buffer the RM until its
  gating predicate holds, complete the blocked read);
* metered send/multicast helpers that price each message against the
  size model (a shared multicast message once) and book it, at send
  time, in this site's slot of the metrics collector — the only
  accounting a message gets;
* the replica seam: the ``applied`` array, LastWriteOn, and the one
  apply and one write issue that change them and tell the collector,
  the history and the tracer (:meth:`CausalProtocol._apply_write`,
  :meth:`CausalProtocol._issue_write`).

Concrete protocols override the small, well-named primitive methods
(``_sm_blocker``, ``_apply_sm``, ``_rm_blocker``, ``_complete_rm`` ...)
rather than the control flow: one gate hook per message kind, called
once per test, and one action once it answers ``None``.
"""

from __future__ import annotations

import abc
from bisect import insort
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Generic, Iterable, Optional, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    # annotation-only crossings, declared as ports in layers.toml: the
    # substrate objects reach the protocol through ProtocolContext
    # injection, never through a module-level runtime import
    from ..obs.tracer import Tracer
    from ..verify.history import HistoryRecorder

from ..memory.replication import Placement, paper_replication_factor
from ..memory.store import SiteStore, WriteId
from ..metrics.collector import MessageKind, MetricsCollector
from .activation import RETEST
from .messages import FetchMessage, accounting_shape
from .ports import Clock, Durability, NullTransport, Transport
from .recovery import WalRecord

__all__ = [
    "ProtocolContext",
    "CausalProtocol",
    "ReadCallback",
    "register_protocol",
    "create_protocol",
    "protocol_names",
    "get_protocol_class",
    "replication_factor_for",
]

#: Signature of the continuation a read hands to the protocol:
#: ``on_complete(value, write_id_or_None, was_remote)``.
ReadCallback = Callable[[object, Optional[WriteId], bool], None]

#: what a core keeps in LastWriteOn per variable (the metadata of the
#: last write applied to it)
LastWrite = TypeVar("LastWrite")


@dataclass
class ProtocolContext:
    """Everything a protocol instance needs from its hosting site."""

    site: int
    n_sites: int
    placement: Placement
    store: SiteStore
    #: message egress + overload signals (:class:`~repro.core.ports.Transport`)
    network: Transport
    #: timestamps only — the cores never arm timers themselves
    clock: Clock
    collector: MetricsCollector
    #: the run's recorded history; None (the default) records nothing
    history: Optional[HistoryRecorder] = None
    #: observability hooks; None (the default) is the zero-overhead path
    tracer: Optional[Tracer] = None


class _Pending:
    """A buffered message awaiting its predicate, with wakeup state.

    ``seq`` is the per-protocol arrival number — within one kind it is
    exactly the position order of the pending list, which is what makes
    indexed activation order reproduce the full re-scan's order.
    ``dirty`` marks the entry as queued for (re-)testing; ``blocker`` is
    the ``(writer, threshold)`` registration currently held in the
    owner's wakeup index (``None`` when dirty, newly arrived, or in the
    always-retest fallback).  Identity equality: buffered entries must
    be distinct.
    """

    __slots__ = ("src", "message", "arrived", "seq", "dirty", "blocker")

    #: scan-kind discriminator: 0 = SM, 1 = RM, 2 = FM (scan order)
    kind: int = -1

    def __init__(self, src: int, message: object, arrived: float,
                 seq: int = 0) -> None:
        self.src = src
        self.message = message
        self.arrived = arrived
        self.seq = seq
        self.dirty = False
        self.blocker: Optional[tuple[int, int]] = None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(src={self.src}, seq={self.seq}, "
                f"dirty={self.dirty}, blocker={self.blocker})")


class _PendingSM(_Pending):
    """An update buffered until its activation predicate becomes true."""

    __slots__ = ()
    kind = 0


class _PendingRM(_Pending):
    """A remote return buffered until its gating predicate becomes true."""

    __slots__ = ()
    kind = 1


class _PendingFM(_Pending):
    """A fetch request buffered until the reader's requirements are met."""

    __slots__ = ()
    kind = 2


#: buffered-entry class per scan kind
_PENDING_TYPES = (_PendingSM, _PendingRM, _PendingFM)

_SEQ_KEY = attrgetter("seq")

#: one row of ``CausalProtocol._scans``
_Scan = tuple[list, Callable[..., Optional[tuple[int, int]]],
              Callable[..., None], str]


@dataclass
class _OutstandingFetch:
    """A read blocked on a RemoteFetch round trip."""

    var: int
    on_complete: ReadCallback
    op_index: Optional[int]
    issued: float
    #: the replica the FM was sent to (crash-recovery liveness analysis)
    target: int = -1


class CausalProtocol(abc.ABC, Generic[LastWrite]):
    """Base class for the four causal-consistency protocols.

    It owns the replica state every core shares: ``applied`` (Apply_i,
    per writer) and ``last_write_on`` (LastWriteOn_i, per variable).
    Every apply goes through :meth:`_apply_write` and every write's issue
    through :meth:`_issue_write`; a core chooses the write id, its
    destinations, the piggyback, the gate and the per-variable metadata.
    """

    #: registry key, e.g. ``"opt-track"``
    name: str = "abstract"
    #: True for protocols that require p = n
    full_replication: bool = False

    def __init__(self, ctx: ProtocolContext) -> None:
        if self.full_replication and not ctx.placement.is_full:
            raise ValueError(
                f"{self.name} requires full replication (p = n), got "
                f"p={ctx.placement.replication_factor}, n={ctx.n_sites}"
            )
        self.ctx = ctx
        self.site = ctx.site
        self.n = ctx.n_sites
        #: Apply_i[j]: the clock of the last write of j applied here (an
        #: apply count under Full-Track).  A plain list: the activation
        #: hot path reads scalars, and Python ints index ~2x faster than
        #: NumPy scalars (docs/architecture.md)
        self.applied: list[int] = [0] * self.n
        #: LastWriteOn_i<h>: var -> the core's metadata of the last write
        #: applied to it; stored values are shared and never mutated
        self.last_write_on: dict[int, LastWrite] = {}
        self._pending_sm: list[_PendingSM] = []
        self._pending_rm: list[_PendingRM] = []
        self._pending_fm: list[_PendingFM] = []
        #: per scan kind (0 = SM, 1 = RM, 2 = FM): the buffer, its gate
        #: (the blocker hook: ``None`` once it holds), the action once
        #: it holds, and the tracer event of a resolved RM / FM — what
        #: the one sweep body (``_scan``) is parameterised by
        self._scans: tuple[_Scan, ...] = (
            (self._pending_sm, self._sm_blocker, self._apply_sm,
             "sm.activate"),
            (self._pending_rm, self._rm_blocker, self._complete_rm,
             "rm.complete"),
            (self._pending_fm, self._fm_blocker, self._serve_fetch,
             "fm.serve"),
        )
        self._fetches: dict[int, _OutstandingFetch] = {}
        self._next_request_id = 0
        #: op_index of the last read counted: a read a crash interrupted
        #: is re-issued under it, and was counted when first issued
        self._counted_read: Optional[int] = None
        self._draining = False
        #: high-water mark of the buffered-SM count (perf harness metric)
        self.pending_sm_peak = 0
        #: monotone arrival counter feeding ``_Pending.seq``
        self._arrival_seq = 0
        # Wakeup index.  ``_waiters[j]`` is a min-heap of
        # ``(threshold, seq, entry)``: entries whose predicate is waiting
        # for ``applied[j] >= threshold``.  ``_dirty[kind]`` holds the
        # entries queued for (re-)testing, in wake order (sorted by seq
        # at scan time).
        self._waiters: list[list[tuple[int, int, _Pending]]] = [
            [] for _ in range(self.n)
        ]
        self._dirty: list[list[_Pending]] = [[], [], []]
        #: active-scan state for same-kind forward wakeups (see ``_wake``)
        self._scan_kind = -1
        self._scan_pos = -1
        self._scan_batch: list[_Pending] = []
        #: durable journal (crash-recovery); ``None`` keeps the seed path
        #: byte-identical — no WAL branch is ever taken
        self._wal: Optional[Durability] = None
        #: True while re-executing WAL records during recovery
        self._replaying = False
        #: arrivals ``on_message`` buffered instead of acting on directly
        self.buffered_arrivals = 0
        #: liveness oracle for fetch-target failover (wired by the
        #: crash-recovery manager; ``None`` = everyone is up)
        self._liveness: Optional[Callable[[int], bool]] = None
        #: kind -> (this site's collector slot, reader of the field whose
        #: length it sums), bound on the kind's first send and bumped
        #: inline in _send; set aside during WAL replay
        self._msg_slots: dict[MessageKind, tuple[list[int], Optional[Callable]]] = {}

    # ------------------------------------------------------------------
    # public API driven by the application subsystem
    # ------------------------------------------------------------------
    @property
    def backpressured(self) -> bool:
        """True while this site's outbound transport signals backpressure
        (a windowed-out backlog on some channel).  Always False on the
        seed path — the reliable network has no queues to fill."""
        return self.ctx.network.overloaded(self.site)

    def admit_put(self) -> None:
        """Admission control for an externally-driven PUT: raises
        :class:`~repro.core.netpolicy.OverloadError` once this site's
        outbound backlog exceeds the policy's shed threshold, so callers
        shed load instead of queuing it unboundedly.  Workload-schedule
        writes bypass this (they *delay* under backpressure instead —
        see :meth:`repro.sim.process.Site._execute_next`).  No-op on the
        seed path."""
        self.ctx.network.check_overload_admission(self.site)

    def write(self, var: int, value: object, *, op_index: Optional[int] = None) -> WriteId:
        """Perform w(x_var)value locally and multicast it to all replicas."""
        if self._wal is not None and not self._replaying:
            self._wal.log_write(var, value)
        return self._perform_write(var, value, op_index=op_index)

    @abc.abstractmethod
    def _perform_write(
        self, var: int, value: object, *, op_index: Optional[int] = None
    ) -> WriteId:
        """Protocol-specific write path (the pre-WAL ``write`` body)."""

    def read(
        self, var: int, on_complete: ReadCallback, *, op_index: Optional[int] = None
    ) -> None:
        """Perform r(x_var); ``on_complete`` fires when the value is known.

        Local reads complete synchronously (before this method returns);
        remote reads issue an FM to the predesignated replica and
        complete when the gated RM arrives.
        """
        ctx = self.ctx
        if self._wal is not None and not self._replaying:
            self._wal.log_read(var)
        fresh = op_index is None or op_index != self._counted_read
        if op_index is not None:
            self._counted_read = op_index
        if ctx.placement.is_replicated_at(var, self.site):
            value, write_id = self._local_read(var)
            if fresh:
                ctx.collector.record_operation(False, remote=False)
            self._return_read(var, value, write_id, op_index, False,
                              on_complete)
            return
        if fresh:
            ctx.collector.record_operation(False, remote=True)
        target = ctx.placement.fetch_site(var, self.site)
        if self._liveness is not None and not self._liveness(target):
            # designated replica is (believed) down: fail over to the
            # first live replica of the variable, if any
            for alt in ctx.placement.replicas(var):
                if alt != self.site and alt != target and self._liveness(alt):
                    target = alt
                    break
        req_id = self._next_request_id
        self._next_request_id += 1
        self._fetches[req_id] = _OutstandingFetch(
            var=var, on_complete=on_complete, op_index=op_index,
            issued=ctx.clock.now, target=target,
        )
        self._send(
            target,
            FetchMessage(
                var=var, reader=self.site, request_id=req_id,
                requirements=self._fetch_requirements(var, target),
            ),
            MessageKind.FM,
        )

    # ------------------------------------------------------------------
    # message receipt subsystem
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: object) -> None:
        """Network delivery entry point: act on arrival if ready, else buffer.

        The message's class picks its row of ``_scans``.  When nothing
        is draining or queued for (re-)testing — an always-retest
        ``RETEST`` entry counts as queued — and the row's gate
        holds, the action runs now: what a batch-of-one sweep would do
        (same tracer event, ``arrived == now``, so no activation-delay
        sample) without the ``_Pending`` round trip.  ``_drain`` then
        finishes the pass that sweep belonged to, so whatever the action
        woke is swept exactly where the buffered path sweeps it (only a
        same-kind arrival from *inside* the action, which no substrate
        produces, would wait for the next pass instead of joining this
        sweep).  Every other arrival is buffered, marked dirty, drained.
        """
        if self._wal is not None and not self._replaying:
            # logged before processing: the reliable transport acks only
            # after this returns, so an acked message is always durable
            self._wal.log_recv(src, message)
        kind = (2 if isinstance(message, FetchMessage)
                else 1 if self._is_rm(message) else 0)  # else: this protocol's SM
        pending, gate, act, _event = self._scans[kind]
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        if kind == 0:
            depth = len(pending) + 1  # the arrival counts itself
            if depth > self.pending_sm_peak:
                self.pending_sm_peak = depth
        dirty = self._dirty
        if (self._draining or dirty[0] or dirty[1] or dirty[2]
                or gate(src, message) is not None):
            self.buffered_arrivals += 1
            entry = _PENDING_TYPES[kind](src, message, self.ctx.clock.now, seq)
            pending.append(entry)
            self._mark_dirty(entry)
            self._drain()
            return
        tracer = self.ctx.tracer
        self._draining = True
        try:
            if tracer is None:
                act(src, message)
            else:
                self._act_traced(tracer, kind, src, message,
                                 self.ctx.clock.now)
        finally:
            self._draining = False
        if dirty[0] or dirty[1] or dirty[2]:
            self._drain(kind + 1)

    # ------------------------------------------------------------------
    # dependency-indexed wakeup machinery
    # ------------------------------------------------------------------
    def _mark_dirty(self, entry: _Pending) -> None:
        """Queue ``entry`` for (re-)testing, preserving re-scan order.

        The pass structure of a full re-scan is: one outer pass = SM
        sweep, then RM sweep, then FM sweep; a sweep visits entries in
        list (= seq) order once, and an entry that becomes applicable
        *behind* the sweep position is only caught by the next pass,
        while one *ahead* of it is caught by the same sweep.  Routing
        reproduces exactly that: a same-kind wake ahead of the active
        sweep joins it (in seq order); everything else goes to its
        kind's dirty list, which the current pass (for later kinds) or
        the next pass (for earlier or same-kind-behind wakes) will sweep.
        """
        entry.dirty = True
        k = entry.kind
        if k == self._scan_kind and entry.seq > self._scan_pos:
            insort(self._scan_batch, entry, key=_SEQ_KEY)
        else:
            self._dirty[k].append(entry)

    def _wake(self, entry: _Pending) -> None:
        entry.blocker = None
        if not entry.dirty:
            self._mark_dirty(entry)

    def _note_applied(self, j: int) -> None:
        """``applied[j]`` advanced: wake every entry whose registered
        threshold is now crossed.

        :meth:`_apply_write`, the one mutation of ``applied``, calls this
        every time — that call is what maintains the core invariant (a
        non-dirty entry's gate is blocked), so the indexed drain never
        needs a full re-scan.
        """
        heap = self._waiters[j]
        if not heap:
            return
        a = self.applied[j]
        while heap and heap[0][0] <= a:
            threshold, _seq, entry = heappop(  # simcheck: ignore[SIM007] -- (threshold, seq) keys are unique, so pops are deterministic
                heap
            )
            # a stale registration (the entry re-registered elsewhere or
            # was already woken) no longer matches its heap tuple: skip
            if entry.blocker == (j, threshold):
                self._wake(entry)

    def _assert_wakeup_complete(self) -> None:
        """Full re-scan proving the index missed nothing.

        At a drain fixpoint a full re-scan would find no applicable
        entry; if the wakeup index is correct, neither does this scan.
        Not called in production — the equivalence tests run it after
        every outermost drain.
        """
        for pending, gate, _act, event in self._scans:
            for p in pending:
                if gate(p.src, p.message) is None:
                    raise AssertionError(
                        f"wakeup index missed a ready entry ({event}) "
                        f"at site {self.site}: {p!r}"
                    )

    # ------------------------------------------------------------------
    # machinery shared by all protocols
    # ------------------------------------------------------------------
    def _drain(self, first: int = 0) -> None:
        """Apply every buffered message whose predicate has become true.

        Only entries whose registered thresholds were crossed (plus new
        arrivals) are re-tested; the pass structure — SM sweep, RM
        sweep, FM sweep, repeated while progress — and the within-sweep
        seq order replicate a full fixpoint re-scan exactly (see
        ``_mark_dirty``).  Termination matches it too: the outer loop
        continues only on actual activations, and every wake coincides
        with an activation in the same pass.  Guarded against
        reentrancy: completions invoked here may issue new operations
        synchronously.

        ``first`` > 0 finishes a pass ``on_message`` began by running a
        kind-``first - 1`` action directly: that was the pass's
        progress, and only the later kinds remain of it.
        """
        if self._draining:
            return
        dirty = self._dirty
        if not (dirty[0] or dirty[1] or dirty[2]):
            return
        self._draining = True
        try:
            progress = True
            while progress:
                progress = first > 0
                for kind in range(first, 3):
                    if dirty[kind] and self._scan(kind):
                        progress = True
                first = 0
        finally:
            self._draining = False

    def _scan(self, kind: int) -> bool:
        """One sweep over ``kind``'s dirty set, in seq order."""
        batch: list[_Pending] = self._dirty[kind]
        self._dirty[kind] = []
        batch.sort(key=_SEQ_KEY)
        self._scan_kind = kind
        self._scan_batch = batch
        progress = False
        ctx = self.ctx
        tracer = ctx.tracer
        pending, gate, act, _event = self._scans[kind]
        waiters = self._waiters
        idx = 0
        try:
            while idx < len(batch):
                entry = batch[idx]
                idx += 1
                self._scan_pos = entry.seq
                entry.dirty = False
                message = entry.message
                blocker = gate(entry.src, message)
                if blocker is None:
                    pending.remove(entry)
                    if kind == 0:
                        delay = ctx.clock.now - entry.arrived
                        if delay > 0:
                            # only genuinely buffered updates count: an
                            # immediately-applicable SM has no gating cost
                            ctx.collector.record_activation_delay(delay)
                    if tracer is None:
                        act(entry.src, message)
                    else:
                        self._act_traced(tracer, kind, entry.src, message,
                                         entry.arrived)
                    progress = True
                elif blocker is RETEST:
                    # no threshold known: re-test on every pass (a full
                    # re-scan, for this entry)
                    entry.dirty = True
                    self._dirty[kind].append(entry)
                else:
                    entry.blocker = blocker
                    heappush(  # simcheck: ignore[SIM007] -- (threshold, seq) keys are unique, so pops are deterministic
                        waiters[blocker[0]],
                        (blocker[1], entry.seq, entry),
                    )
        finally:
            self._scan_kind = -1
            self._scan_pos = -1
            self._scan_batch = []
        return progress

    def _act_traced(self, tracer: "Tracer", kind: int, src: int,
                    message: object, arrived: float) -> None:
        """Run ``kind``'s action under its resolution event — the causal
        parent of anything it triggers (e.g. a newly unblocked reply)."""
        _pending, _gate, act, event = self._scans[kind]
        now = self.ctx.clock.now
        if kind == 0:
            tracer.sm_activate(self.site, message, ts=now, arrived=arrived)
        else:
            tracer.gated_resolved(event, self.site, message, ts=now,
                                  arrived=arrived)
        try:
            act(src, message)
        finally:
            tracer.pop()

    def _slot(self, kind: MessageKind,
              message: object) -> tuple[list[int], Optional[Callable]]:
        """This site's collector slot for ``kind`` and the reader of the
        field whose length it sums.  Booking is three adds into that
        slot — every count and byte total reported about messages is a
        sum over the slots (``MetricsCollector.message_slots``), so
        nothing else on the send path accounts for a message."""
        try:
            return self._msg_slots[kind]
        except KeyError:
            # a kind's message type and clock width are fixed for the
            # run, so the slot is bound once
            length_of, width = accounting_shape(message)
            slot = self.ctx.collector.message_slot(
                kind, (self.name, self.site, type(message), width))
            bound = self._msg_slots[kind] = slot, length_of
            return bound

    def _book(self, message: object, kind: MessageKind, copies: int = 1) -> int:
        """Price ``message``, book ``copies`` sends of it, return the price.
        All addends are ints: ``copies`` at once is ``copies`` bookings
        of one."""
        size: int = message.metadata_size()  # type: ignore[attr-defined]
        slot, length_of = self._slot(kind, message)
        slot[0] += copies
        slot[1] += size * copies
        if length_of is not None:
            slot[2] += len(length_of(message)) * copies
        return size

    def _send(self, dst: int, message: object, kind: MessageKind) -> None:
        """Price, book, and transmit one message.  The network gets the
        price: under a finite-bandwidth model bigger metadata costs
        transmission time (never in the paper's default, infinite)."""
        ctx = self.ctx
        size = self._book(message, kind)
        if ctx.tracer is not None:
            ctx.tracer.msg_send(self.site, dst, message, ts=ctx.clock.now,
                                kind=kind.value, size=size)
        ctx.network.send(self.site, dst, message, size_bytes=size)

    def _multicast(self, dests: Sequence[int], message: object,
                   kind: MessageKind = MessageKind.SM) -> None:
        """Metered multicast of one shared message to every remote dest:
        priced once, booked k-fold in one add, then one
        :meth:`_transmit` of the k copies."""
        site = self.site
        targets = [dst for dst in dests if dst != site]
        if targets:
            k = len(targets)
            size = self._book(message, kind, k)
            self._transmit(targets, [message] * k, [size] * k, kind)

    def _multicast_each(self, targets: Sequence[int],
                        messages: Sequence[object],
                        kind: MessageKind = MessageKind.SM) -> None:
        """Metered multicast of one message per remote destination
        (``messages[i]`` to ``targets[i]``; Opt-Track's piggyback views):
        each copy priced, all k booked with one slot lookup and one add
        per counter — the int sums of k single bookings — then one
        :meth:`_transmit`."""
        sizes = [m.metadata_size() for m in messages]  # type: ignore[attr-defined]
        slot, length_of = self._slot(kind, messages[0])
        slot[0] += len(messages)
        slot[1] += sum(sizes)
        if length_of is not None:
            slot[2] += sum(map(len, map(length_of, messages)))
        self._transmit(targets, messages, sizes, kind)

    def _transmit(self, targets: Sequence[int], messages: Sequence[object],
                  sizes: Sequence[int], kind: MessageKind) -> None:
        """Hand booked copies to the transport's ``multicast``, telling
        the tracer, when on, of each first."""
        ctx = self.ctx
        tracer = ctx.tracer
        if tracer is not None:
            for dst, message, size in zip(targets, messages, sizes):
                tracer.msg_send(self.site, dst, message, ts=ctx.clock.now,
                                kind=kind.value, size=size)
        ctx.network.multicast(self.site, targets, messages, sizes)

    def _fetch_requirements(self, var: int, target: int) -> tuple[tuple[int, int], ...]:
        """(writer, threshold) pairs the fetch target must have applied
        before it may serve this reader (see :class:`FetchMessage`).

        Defaults to none; partial-replication protocols override it with
        the writes in their causal past destined to ``target``.
        """
        return ()

    def _fm_blocker(
        self, src: int, message: FetchMessage
    ) -> Optional[tuple[int, int]]:
        """Fetch-service gate: all of the reader's requirements applied —
        served earlier, the reply could be causally behind the reader's
        own knowledge (DESIGN.md, "gating fetch service").  The first
        unsatisfied requirement is the blocker.

        Compares against ``self.applied``, with requirement thresholds
        expressed in the unit the core keeps there (apply counts for
        Full-Track, write clocks for Opt-Track).
        """
        applied = self.applied
        for j, c in message.requirements:
            if applied[j] < c:
                return (j, c)
        return None

    def _complete_fetch(
        self, request_id: int, value: object, write_id: Optional[WriteId]
    ) -> None:
        """Finish the read blocked on ``request_id`` (RM gating already passed)."""
        fetch = self._fetches.pop(request_id, None)
        if fetch is None:
            # An RM answering a fetch whose continuation died in a crash:
            # the read was re-issued under a fresh request id after
            # recovery, so this late reply is dropped (its causal
            # metadata was already merged by the caller).
            self.ctx.collector.record_stale_rm()
            return
        ctx = self.ctx
        ctx.collector.record_fetch_rtt(ctx.clock.now - fetch.issued)
        self._return_read(fetch.var, value, write_id, fetch.op_index, True,
                          fetch.on_complete)

    def _return_read(self, var: int, value: object,
                     write_id: Optional[WriteId], op_index: Optional[int],
                     remote: bool, on_complete: ReadCallback) -> None:
        """A read returns ``value``: record it, then run its continuation."""
        ctx = self.ctx
        if ctx.history is not None:
            ctx.history.record_read_op(
                time=ctx.clock.now, site=self.site, var=var, value=value,
                write_id=write_id, op_index=op_index, remote=remote,
            )
        on_complete(value, write_id, remote)

    # ------------------------------------------------------------------
    # the replica seam: a write's issue and apply
    # ------------------------------------------------------------------
    def _issue_write(self, var: int, value: object, wid: WriteId,
                     dests: Iterable[int], op_index: Optional[int],
                     log_size: Optional[int] = None) -> None:
        """``wid`` was just assigned to w(x_var)value: count the
        operation, record it, and trace it (with the core's log size,
        when it keeps a log)."""
        ctx = self.ctx
        ctx.collector.record_operation(True)
        if ctx.history is not None:
            ctx.history.record_write_op(
                time=ctx.clock.now, site=self.site, var=var, value=value,
                write_id=wid, op_index=op_index, dests=dests,
            )
        if ctx.tracer is not None:
            ctx.tracer.write_issued(self.site, ctx.clock.now, writer=wid.site,
                                    clock=wid.clock, var=var,
                                    log_size=log_size)

    def _apply_write(self, var: int, value: object, wid: WriteId,
                     applied_to: int, last_write: LastWrite,
                     issued_at: float) -> None:
        """Install ``wid`` in the local replica of ``var``: the one state
        change every core performs, local write and activated SM alike.

        ``applied[wid.site]`` becomes ``applied_to`` (the write's clock,
        or Full-Track's apply count + 1) and must grow: by exactly one
        under full replication, where every write of a writer lands here
        in FIFO order.  ``last_write`` becomes LastWriteOn<var>.  A
        remote write's apply (an activated SM: a site never sends its own
        write to itself) samples the visibility lag since ``issued_at``.
        """
        j = wid.site
        applied = self.applied
        prev = applied[j]
        if applied_to <= prev or (self.full_replication
                                  and applied_to != prev + 1):
            raise AssertionError(
                f"FIFO violation: applying {wid} as {applied_to} after {prev}")
        ctx = self.ctx
        now = ctx.clock.now
        ctx.store.apply(var, value, wid, now)
        applied[j] = applied_to
        self._note_applied(j)
        self.last_write_on[var] = last_write
        if j != self.site:
            ctx.collector.record_visibility(now - issued_at)
        if ctx.history is not None:
            ctx.history.record_apply(time=now, site=self.site, var=var,
                                     write_id=wid)

    # ------------------------------------------------------------------
    # state protocol subclasses must provide
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        """Read the local replica, performing the protocol's merge-on-read."""

    @abc.abstractmethod
    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        """Answer a remote read with an RM carrying LastWriteOn metadata."""

    @abc.abstractmethod
    def _is_rm(self, message: object) -> bool:
        """True when ``message`` is this protocol's RM type."""

    @abc.abstractmethod
    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        """Activation gate A_OPT for an SM.

        ``None`` when the gate holds.  Otherwise a pair with
        ``applied[writer] < threshold`` such that the gate cannot hold
        before ``applied[writer] >= threshold``, or
        :data:`~repro.core.activation.RETEST` when no such pair exists
        (the entry is then re-tested on every pass).
        """

    @abc.abstractmethod
    def _apply_sm(self, src: int, message: object) -> None:
        """Apply an activated SM to the local replica."""

    def _rm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        """Same contract as :meth:`_sm_blocker`, for the RM gate
        (overridden by partial-replication protocols; full-replication
        ones never see RMs)."""
        raise NotImplementedError

    def _complete_rm(self, src: int, message: object) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # crash-recovery: durable snapshots and deterministic WAL replay
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the complete logical state of this protocol instance.

        The blob must be sufficient for :meth:`restore` to rebuild an
        instance indistinguishable from this one to every peer: pending
        buffers, the fetch-request counter, ``applied``, LastWriteOn, the
        local replica slots, and whatever clocks/logs the concrete
        protocol adds via :meth:`_snapshot_extra`.  Messages inside pending
        buffers and the LastWriteOn metadata are shared, not copied — they
        are immutable by construction (``docs/protocols.md``).
        """
        return {
            "pending_sm": [(p.src, p.message, p.arrived) for p in self._pending_sm],
            "pending_rm": [(p.src, p.message, p.arrived) for p in self._pending_rm],
            "pending_fm": [(p.src, p.message, p.arrived) for p in self._pending_fm],
            "next_request_id": self._next_request_id,
            "applied": list(self.applied),
            "last_write_on": dict(self.last_write_on),
            "slots": {
                var: (slot.value, slot.write_id, slot.applied_at)
                for var, slot in self.ctx.store._slots.items()
            },
            "extra": self._snapshot_extra(),
        }

    def restore(self, state: dict) -> None:
        """Overwrite volatile state from a :meth:`snapshot` blob.

        Every rebuilt pending entry is marked dirty and the wakeup index
        is cleared: the restored ``applied`` array says nothing about
        which registrations were live at capture time, so the next drain
        re-tests everything once and re-registers the survivors.
        """
        for kind, key in enumerate(("pending_sm", "pending_rm", "pending_fm")):
            pending = self._scans[kind][0]
            pending.clear()  # in place: _scans holds these lists
            for s, m, t in state[key]:
                pending.append(
                    _PENDING_TYPES[kind](s, m, t, self._arrival_seq))
                self._arrival_seq += 1
        if len(self._pending_sm) > self.pending_sm_peak:
            self.pending_sm_peak = len(self._pending_sm)
        self._waiters = [[] for _ in range(self.n)]
        self._dirty = [
            list(self._pending_sm),
            list(self._pending_rm),
            list(self._pending_fm),
        ]
        for lst in self._dirty:
            for entry in lst:
                entry.dirty = True
        self._scan_kind = -1
        self._scan_pos = -1
        self._scan_batch = []
        self._next_request_id = state["next_request_id"]
        self.applied = list(state["applied"])
        self.last_write_on = dict(state["last_write_on"])
        self._fetches.clear()
        self._draining = False
        slots = self.ctx.store._slots
        for var, (value, write_id, applied_at) in state["slots"].items():
            slot = slots[var]
            slot.value = value
            slot.write_id = write_id
            slot.applied_at = applied_at
        self._restore_extra(state["extra"])

    def replay(self, records: "Sequence[WalRecord]") -> int:
        """Re-execute WAL records through the normal protocol code paths.

        Every protocol here is a deterministic state machine over its
        inputs, so replay reconstructs the exact pre-crash logical
        state.  Side effects that already happened must not happen
        again: sends go to a null network (the originals are durable in
        the reliable-channel queues), metrics to a throwaway collector
        (the bound message slots are set aside with it), and nothing is
        recorded, traced or WAL-logged.  Reads outstanding at the
        crash are cleared afterwards — their continuations died with
        the process and the scheduler re-issues the interrupted
        operation.
        """
        real_ctx = self.ctx
        self.ctx = replace(
            real_ctx,
            network=NullTransport(),
            collector=MetricsCollector(),
            history=None,
            tracer=None,
        )
        # the bound message slots would otherwise re-record replayed
        # sends into the real collector
        saved_slots = self._msg_slots
        self._msg_slots = {}
        self._replaying = True
        try:
            for rec in records:
                if rec.kind == "recv":
                    self.on_message(rec.src, rec.message)
                elif rec.kind == "write":
                    self._perform_write(rec.var, rec.value)
                elif rec.kind == "read":
                    self.read(rec.var, lambda value, wid, remote: None)
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown WAL record kind {rec.kind!r}")
        finally:
            self._replaying = False
            self.ctx = real_ctx
            self._msg_slots = saved_slots
        self._fetches.clear()
        return len(records)

    def knows_write(self, wid: WriteId) -> Optional[bool]:
        """Whether this site has applied ``wid`` (anti-entropy digests).

        ``applied[j]`` is the highest clock of j applied here, and the
        clocks of j's writes destined here increase along FIFO channels,
        so the comparison is sound in both directions.  ``None`` means
        the core's ``applied`` cannot answer (Full-Track counts
        applications rather than writer clocks); the catch-up loop then
        relies on transport drain alone.
        """
        return self.applied[wid.site] >= wid.clock

    def _snapshot_extra(self) -> dict:
        """Protocol-specific clocks/logs for :meth:`snapshot`."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Inverse of :meth:`_snapshot_extra`."""

    # ------------------------------------------------------------------
    # introspection used by tests and the runner
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Buffered messages + outstanding fetches (0 at quiescence)."""
        return (len(self._pending_sm) + len(self._pending_rm)
                + len(self._pending_fm) + len(self._fetches))

    @property
    def reads_in_flight(self) -> int:
        """Remote reads issued but not yet completed.

        Program order runs *through* a pending read: injectors must not
        fire an operation at this site between a read's FM issue and its
        RM completion, or the site stops being a sequential process.
        """
        return len(self._fetches)

    @property
    def buffered_count(self) -> int:
        """Buffered messages only, *excluding* outstanding fetches."""
        return (len(self._pending_sm) + len(self._pending_rm)
                + len(self._pending_fm))

    def log_size(self) -> int:
        """Current causality-metadata size (entries); protocol-specific."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} site={self.site} pending={self.pending_count}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[CausalProtocol]] = {}


def register_protocol(cls: type[CausalProtocol]) -> type[CausalProtocol]:
    """Class decorator adding a protocol to the by-name registry."""
    key = cls.name
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"duplicate protocol name {key!r}")
    _REGISTRY[key] = cls
    return cls


def create_protocol(name: str, ctx: ProtocolContext) -> CausalProtocol:
    """Instantiate a registered protocol by name."""
    return get_protocol_class(name)(ctx)


def get_protocol_class(name: str) -> type[CausalProtocol]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def protocol_names() -> list[str]:
    return sorted(_REGISTRY)


def replication_factor_for(protocol: str, n_sites: int,
                           requested: Optional[int] = None) -> int:
    """The replication factor p a cell of ``protocol`` runs at, on
    either substrate: n for a full-replication protocol, else
    ``requested`` or the paper's 30 % of n.  An explicit p outside
    [1, n], or other than n under a full-replication protocol, raises
    :class:`ValueError`."""
    if requested is not None and not 1 <= requested <= n_sites:
        raise ValueError(
            f"replication factor {requested} outside [1, {n_sites}]")
    if get_protocol_class(protocol).full_replication:
        if requested is not None and requested != n_sites:
            raise ValueError(
                f"{protocol} requires full replication (p = n = {n_sites}), "
                f"got p = {requested}")
        return n_sites
    if requested is not None:
        return requested
    return paper_replication_factor(n_sites)
