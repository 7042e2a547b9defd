"""Protocol framework: context, base class, pending buffers, registry.

Every protocol implements the paper's process model (Section IV-A): an
*application subsystem* calls :meth:`CausalProtocol.write` and
:meth:`CausalProtocol.read`, while the *message receipt subsystem* is the
:meth:`CausalProtocol.on_message` entry point invoked by the network.

The base class centralizes the machinery all four protocols share:

* the pending-SM buffer with **dependency-indexed wakeups** — every
  activation predicate here is a pure, monotone function of the local
  ``applied`` array, so a blocked message registers the first
  ``(writer, threshold)`` pair its predicate is waiting on and is only
  re-tested when ``applied[writer]`` crosses that threshold.  This
  replaces a full fixpoint re-scan (O(P) predicate tests per
  application, O(P^2) per delivery burst) while activating the exact
  same messages in the exact same order — see ``_drain`` and
  docs/architecture.md, "Hot path & performance model".  The re-scan
  needs no second implementation: a blocker hook that returns ``None``
  puts its entry back on every pass, so the same drain with every hook
  answering ``None`` *is* the re-scan, and that is what the equivalence
  property test compares whole-run traces against.  An arrival that
  is ready when nothing is queued skips the buffer altogether
  (``on_message``), which at the paper's op gaps is nearly all of them;
* the remote-fetch state machine (issue FM, buffer the RM until its
  gating predicate holds, complete the blocked read);
* metered send/multicast helpers that price each message against the
  size model (a shared multicast message once) and book it, at send
  time, in this site's slot of the metrics collector — the only
  accounting a message gets;
* history recording hooks for the causal-consistency checker.

Concrete protocols override the small, well-named primitive methods
(``_sm_ready``, ``_apply_sm``, ``_rm_ready``, ``_complete_rm`` ...)
rather than the control flow, plus the ``_sm_blocker``/``_rm_blocker``/
``_fm_blocker`` hooks that name the first unsatisfied threshold of a
false predicate (a protocol may return ``None`` to fall back to
re-testing every pass).
"""

from __future__ import annotations

import abc
from bisect import insort
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    # annotation-only crossings, declared as ports in layers.toml: the
    # substrate objects reach the protocol through ProtocolContext
    # injection, never through a module-level runtime import
    from ..obs.metrics import Histogram, MetricsRegistry
    from ..obs.tracer import Tracer
    from ..sim.checkpoint import WalRecord

from ..memory.replication import Placement
from ..memory.store import SiteStore, WriteId
from ..metrics.collector import MessageKind, MetricsCollector
from ..metrics.sizing import SizeModel
from ..verify.history import HistoryRecorder
from .errors import DepartedSiteError
from .messages import FetchMessage, accounting_shape
from .ports import Clock, Durability, NullTransport, Transport

__all__ = [
    "ProtocolContext",
    "CausalProtocol",
    "ReadCallback",
    "register_protocol",
    "create_protocol",
    "protocol_names",
    "get_protocol_class",
]

#: Signature of the continuation a read hands to the protocol:
#: ``on_complete(value, write_id_or_None, was_remote)``.
ReadCallback = Callable[[object, Optional[WriteId], bool], None]

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
    size_model: SizeModel
    history: HistoryRecorder = field(default_factory=lambda: HistoryRecorder(enabled=False))
    #: observability hooks; None (the default) is the zero-overhead path
    tracer: Optional[Tracer] = None
    #: metrics registry (labeled instruments); None is the zero-overhead path
    registry: Optional[MetricsRegistry] = None


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
_Scan = tuple[list, Callable[..., bool],
              Callable[..., Optional[tuple[int, int]]],
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


class CausalProtocol(abc.ABC):
    """Base class for the four causal-consistency protocols."""

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
        self._pending_sm: list[_PendingSM] = []
        self._pending_rm: list[_PendingRM] = []
        self._pending_fm: list[_PendingFM] = []
        #: per scan kind (0 = SM, 1 = RM, 2 = FM): the buffer, its gate,
        #: the hook naming a false gate's first unmet threshold, the
        #: action once the gate holds, and the tracer event of a
        #: resolved RM / FM — what the one sweep body (``_scan``) is
        #: parameterised by
        self._scans: tuple[_Scan, ...] = (
            (self._pending_sm, self._sm_ready, self._sm_blocker,
             self._apply_sm, "sm.activate"),
            (self._pending_rm, self._rm_ready, self._rm_blocker,
             self._complete_rm, "rm.complete"),
            (self._pending_fm, self._fm_ready, self._fm_blocker,
             self._serve_fetch, "fm.serve"),
        )
        self._fetches: dict[int, _OutstandingFetch] = {}
        self._next_request_id = 0
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
        #: RMs answering a fetch whose continuation died in a crash
        self.stale_rms_dropped = 0
        #: arrivals ``on_message`` buffered instead of acting on directly
        self.buffered_arrivals = 0
        #: liveness oracle for fetch-target failover (wired by the
        #: crash-recovery manager; ``None`` = everyone is up)
        self._liveness: Optional[Callable[[int], bool]] = None
        #: current view membership as a sorted tuple, or ``None`` under
        #: static membership (the zero-overhead path: broadcasts then
        #: target ``range(self.n)`` exactly as before elastic membership)
        self._members: Optional[tuple[int, ...]] = None
        #: set once this site leaves / is evicted; operations fail fast
        self._departed_status: Optional[str] = None
        # Metrics instruments, resolved once per protocol instance so the
        # hot paths pay a single ``is None`` branch (registry=None keeps
        # all three at None — no instrument objects exist at all).  The
        # histogram children are shared across sites (label: protocol);
        # per-site detail lives in the collector's message slots.
        registry = ctx.registry
        if registry is not None:
            self._m_activation_wait: Optional[Histogram] = registry.histogram(  # type: ignore[assignment]
                "proto_activation_wait_ms",
                "time a buffered SM waited before its activation predicate held",
                labels=("protocol",),
                reservoir=False,
            ).labels(protocol=self.name)
            self._m_pending_depth: Optional[Histogram] = registry.histogram(  # type: ignore[assignment]
                "proto_pending_sm_depth",
                "buffered-SM queue depth (1-in-4 SM-arrival sample)",
                labels=("protocol",),
                buckets=(0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128),
                reservoir=False,
            ).labels(protocol=self.name)
            # deterministic 1-in-4 sampling of the depth shape metric
            # (same idiom as the kernel batch hook's stride); the peak
            # is still exact via pending_sm_peak
            self._m_depth_skip = 0
            self._m_log_entries: Optional[Histogram] = registry.histogram(  # type: ignore[assignment]
                "proto_log_entries",
                "piggyback log/clock entry count (1-in-4 local-write sample)",
                labels=("protocol",),
                reservoir=False,
            ).labels(protocol=self.name)
            self._m_log_skip = 0
        else:
            self._m_activation_wait = None
            self._m_pending_depth = None
            self._m_log_entries = None
        #: kind -> (this site's collector slot, reader of the field whose
        #: length it sums), bound on the kind's first send and bumped
        #: inline in _send; dropped on view changes (the clock width is
        #: part of the slot key) and set aside during WAL replay
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
        :class:`~repro.sim.reliable.OverloadError` once this site's
        outbound backlog exceeds the policy's shed threshold, so callers
        shed load instead of queuing it unboundedly.  Workload-schedule
        writes bypass this (they *delay* under backpressure instead —
        see :meth:`repro.sim.process.Site._execute_next`).  No-op on the
        seed path."""
        self.ctx.network.check_overload_admission(self.site)

    def write(self, var: int, value: object, *, op_index: Optional[int] = None) -> WriteId:
        """Perform w(x_var)value locally and multicast it to all replicas."""
        if self._departed_status is not None:
            raise DepartedSiteError(self.site, self._departed_status)
        if self._wal is not None and not self._replaying:
            self._wal.log_write(var, value)
        write_id = self._perform_write(var, value, op_index=op_index)
        if self._m_log_entries is not None:
            # 1-in-4 deterministic sample, same idiom as _m_depth_skip
            self._m_log_skip += 1
            if self._m_log_skip >= 4:
                self._m_log_skip = 0
                self._m_log_entries.observe(self.log_size())
        return write_id

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
        if self._departed_status is not None:
            raise DepartedSiteError(self.site, self._departed_status)
        ctx = self.ctx
        if self._wal is not None and not self._replaying:
            self._wal.log_read(var)
        if ctx.placement.is_replicated_at(var, self.site):
            value, write_id = self._local_read(var)
            ctx.collector.record_operation(False, remote=False)
            ctx.history.record_read_op(
                time=ctx.clock.now, site=self.site, var=var, value=value,
                write_id=write_id, op_index=op_index, remote=False,
            )
            on_complete(value, write_id, False)
            return
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
        ctx.history.record_fetch(time=ctx.clock.now, site=self.site, peer=target, var=var)
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
        ``None``-blocker entry counts as queued — and the row's gate
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
        pending, gate, _blocker_of, act, _event = self._scans[kind]
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        if kind == 0:
            depth = len(pending) + 1  # the arrival counts itself
            if depth > self.pending_sm_peak:
                self.pending_sm_peak = depth
            if self._m_pending_depth is not None:
                self._m_depth_skip += 1
                if self._m_depth_skip >= 4:
                    self._m_depth_skip = 0
                    self._m_pending_depth.observe(depth)
        dirty = self._dirty
        if (self._draining or dirty[0] or dirty[1] or dirty[2]
                or not gate(src, message)):
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

        Concrete protocols call this after *every* mutation of their
        ``applied`` array — that call is what maintains the core
        invariant (a non-dirty entry's predicate is false), so the
        indexed drain never needs a full re-scan.
        """
        heap = self._waiters[j]
        if not heap:
            return
        a = self.applied[j]  # type: ignore[attr-defined]
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
        for pending, gate, _blocker_of, _act, event in self._scans:
            for p in pending:
                if gate(p.src, p.message):
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
        pending, gate, blocker_of, act, _event = self._scans[kind]
        waiters = self._waiters
        idx = 0
        try:
            while idx < len(batch):
                entry = batch[idx]
                idx += 1
                self._scan_pos = entry.seq
                entry.dirty = False
                message = entry.message
                if gate(entry.src, message):
                    pending.remove(entry)
                    if kind == 0:
                        delay = ctx.clock.now - entry.arrived
                        if delay > 0:
                            # only genuinely buffered updates count: an
                            # immediately-applicable SM has no gating cost
                            ctx.collector.record_activation_delay(delay)
                            if self._m_activation_wait is not None:
                                self._m_activation_wait.observe(delay)
                    if tracer is None:
                        act(entry.src, message)
                    else:
                        self._act_traced(tracer, kind, entry.src, message,
                                         entry.arrived)
                    progress = True
                else:
                    blocker = blocker_of(entry.src, message)
                    if blocker is None:
                        # no threshold known: re-test on every pass (a
                        # full re-scan, for this entry)
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
        _pending, _gate, _blocker_of, act, event = self._scans[kind]
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

    def _book(self, message: object, kind: MessageKind, copies: int = 1) -> int:
        """Price ``message``, book ``copies`` sends of it, return the price.

        Booking is the three adds below into this site's collector slot
        for ``kind`` — every count and byte total reported about messages
        is a sum over those slots (``MetricsCollector.message_slots``),
        so nothing else on the send path accounts for the message.  All
        addends are ints: ``copies`` at once is ``copies`` bookings of one.
        """
        size: int = message.metadata_size(self.ctx.size_model)  # type: ignore[attr-defined]
        try:
            slot, length_of = self._msg_slots[kind]
        except KeyError:
            # a kind's message type and clock width are fixed within a
            # membership epoch, so the slot is bound once per epoch
            length_of, width = accounting_shape(message)
            slot = self.ctx.collector.message_slot(
                kind, (self.name, self.site, type(message), width))
            self._msg_slots[kind] = slot, length_of
        slot[0] += copies
        slot[1] += size * copies
        if length_of is not None:
            slot[2] += len(length_of(message)) * copies
        return size

    def _announce(self, dst: int, message: object, kind: MessageKind,
                  size: int) -> None:
        """Tell the tracer and the history, whichever is on, of one send."""
        ctx = self.ctx
        if ctx.tracer is not None:
            ctx.tracer.msg_send(self.site, dst, message,
                                ts=ctx.clock.now,
                                kind=kind.value, size=size)
        history = ctx.history
        if history.enabled:  # skip the kwargs + __name__ cost when off
            history.record_send(
                time=ctx.clock.now, site=self.site, peer=dst,
                detail=type(message).__name__,
            )

    def _send(self, dst: int, message: object, kind: MessageKind) -> None:
        """Price, book, and transmit one message.  The network gets the
        price: under a finite-bandwidth model bigger metadata costs
        transmission time (never in the paper's default, infinite)."""
        ctx = self.ctx
        size = self._book(message, kind)
        if ctx.tracer is not None or ctx.history.enabled:
            self._announce(dst, message, kind, size)
        ctx.network.send(self.site, dst, message, size_bytes=size)

    def _multicast(self, dests: Sequence[int], message: object,
                   kind: MessageKind = MessageKind.SM) -> None:
        """Metered multicast of one shared message to every remote dest:
        priced once, booked k-fold in one add, then the transport's
        ``multicast`` (k sends, in ``dests`` order).  A message that
        differs per destination (Opt-Track) goes through :meth:`_send`."""
        site = self.site
        targets = [dst for dst in dests if dst != site]
        if targets:
            ctx = self.ctx
            size = self._book(message, kind, len(targets))
            if ctx.tracer is not None or ctx.history.enabled:
                for dst in targets:
                    self._announce(dst, message, kind, size)
            ctx.network.multicast(site, targets, message, size_bytes=size)

    def _fetch_requirements(self, var: int, target: int) -> tuple[tuple[int, int], ...]:
        """(writer, threshold) pairs the fetch target must have applied
        before it may serve this reader (see :class:`FetchMessage`).

        Defaults to none; partial-replication protocols override it with
        the writes in their causal past destined to ``target``.
        """
        return ()

    def _fm_ready(self, src: int, message: FetchMessage) -> bool:
        """Fetch-service gate: all of the reader's requirements applied —
        served earlier, the reply could be causally behind the reader's
        own knowledge (DESIGN.md, "gating fetch service").

        Compares against ``self.applied`` — every concrete protocol keeps
        that array, with requirement thresholds expressed in the same
        unit it uses (apply counts for Full-Track, write clocks for
        Opt-Track).
        """
        applied = self.applied  # type: ignore[attr-defined]
        return all(applied[j] >= c for j, c in message.requirements)

    def _fm_blocker(
        self, src: int, message: FetchMessage
    ) -> Optional[tuple[int, int]]:
        """First unsatisfied requirement of a false ``_fm_ready``."""
        applied = self.applied  # type: ignore[attr-defined]
        for j, c in message.requirements:
            if applied[j] < c:
                return (j, c)
        return None

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        """First ``(writer, threshold)`` a false ``_sm_ready`` waits on.

        Contract: when ``_sm_ready`` is false, return a pair such that
        ``applied[writer] < threshold`` and the predicate cannot become
        true before ``applied[writer] >= threshold``.  ``None`` opts the
        entry into every-pass re-testing (always correct, never faster).
        """
        return None

    def _rm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        """Same contract as :meth:`_sm_blocker`, for the RM gate."""
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
            self.stale_rms_dropped += 1
            self.ctx.collector.record_stale_rm()
            return
        ctx = self.ctx
        ctx.collector.record_fetch_rtt(ctx.clock.now - fetch.issued)
        ctx.history.record_read_op(
            time=ctx.clock.now, site=self.site, var=fetch.var, value=value,
            write_id=write_id, op_index=fetch.op_index, remote=True,
        )
        fetch.on_complete(value, write_id, True)

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
    def _sm_ready(self, src: int, message: object) -> bool:
        """Activation predicate A_OPT for a buffered SM."""

    @abc.abstractmethod
    def _apply_sm(self, src: int, message: object) -> None:
        """Apply an activated SM to the local replica."""

    def _rm_ready(self, src: int, message: object) -> bool:
        """Gating predicate for a buffered RM (overridden by partial-
        replication protocols; full-replication ones never see RMs)."""
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
        buffers, the fetch-request counter, the local replica slots, and
        whatever clocks/logs the concrete protocol adds via
        :meth:`_snapshot_extra`.  Messages inside pending buffers are
        shared, not copied — they are immutable by protocol convention.
        """
        return {
            "pending_sm": [(p.src, p.message, p.arrived) for p in self._pending_sm],
            "pending_rm": [(p.src, p.message, p.arrived) for p in self._pending_rm],
            "pending_fm": [(p.src, p.message, p.arrived) for p in self._pending_fm],
            "next_request_id": self._next_request_id,
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
        traced or WAL-logged.  Reads outstanding at the
        crash are cleared afterwards — their continuations died with
        the process and the scheduler re-issues the interrupted
        operation.
        """
        real_ctx = self.ctx
        self.ctx = replace(
            real_ctx,
            network=NullTransport(),
            collector=MetricsCollector(),
            history=HistoryRecorder(enabled=False),
            tracer=None,
            registry=None,
        )
        # the pre-bound instrument children and message slots would
        # otherwise re-record replayed arrivals/activations/sends into
        # the real registry and collector
        saved_instruments = (self._m_activation_wait, self._m_pending_depth,
                             self._m_log_entries, self._msg_slots)
        self._m_activation_wait = None
        self._m_pending_depth = None
        self._m_log_entries = None
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
            (self._m_activation_wait, self._m_pending_depth,
             self._m_log_entries, self._msg_slots) = saved_instruments
        self._fetches.clear()
        return len(records)

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def on_view_change(self, view) -> None:
        """Adopt a new view epoch: remap/resize causality metadata.

        Called by the :class:`~repro.sim.membership.ViewManager` at a
        *drained* fence — no protocol message is in flight, so resizing
        is a pure pad-with-zeros (a site that did not exist yet trivially
        has zero causal knowledge).  Idempotent with respect to
        dimension: crash recovery re-announces the live view right after
        a (possibly pre-growth) checkpoint is restored, and the hooks
        grow from the structures' *actual* sizes.
        """
        self._members = view.members
        # a slot's key bakes in the clock width (full-track/optP); a
        # view change can resize it, so re-bind on the next send
        self._msg_slots.clear()
        capacity = view.capacity
        if capacity > self.n:
            self.n = capacity
            self.ctx.n_sites = capacity
        while len(self._waiters) < capacity:
            self._waiters.append([])
        self._view_grow(capacity)
        self._view_change_extra(view)

    def _view_grow(self, capacity: int) -> None:
        """Pad protocol metadata (clocks, ``applied``, ...) to ``capacity``.

        Overridden by every concrete protocol; must grow from actual
        structure sizes (not ``self.n``) so it composes with restore().
        """

    def _view_change_extra(self, view) -> None:
        """Protocol-specific remapping beyond plain growth (e.g. clearing
        interned destination-set memos that referenced departed sites)."""

    def reset_writer_identity(self, site: int) -> None:
        """Reset writer-local counters after a donor-forked bootstrap.

        A joiner cloned from a donor snapshot must issue write ids as
        *itself* starting from clock 1; protocols whose write counter
        lives in shared structures (vector/matrix clock row) need no
        reset because the joiner's own row is zero-padded.
        """

    def mark_departed(self, status: str = "left") -> None:
        """This site is out of the view: fail its operations fast."""
        self._departed_status = status
        self._fetches.clear()

    def _broadcast_dests(self) -> Sequence[int]:
        """Destinations of a full-replication broadcast: every member.

        ``range(self.n)`` under static membership — byte-identical to the
        pre-membership behavior — and the current view's member tuple
        once a view change has happened.
        """
        members = self._members
        return range(self.n) if members is None else members

    def knows_write(self, wid: WriteId) -> Optional[bool]:
        """Whether this site has applied ``wid`` (anti-entropy digests).

        ``None`` means the protocol's ``applied`` bookkeeping cannot
        answer (Full-Track counts applications rather than writer
        clocks); the catch-up loop then relies on transport drain alone.
        """
        return None

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
        """Buffered messages only, *excluding* outstanding fetches.

        The view-change fence drains on this rather than
        :attr:`pending_count`: a fetch aimed at a crash-stopped site can
        never complete, and a fence that waited on it would deadlock
        (dimension-tolerant clock merges make the late reply safe).
        """
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
