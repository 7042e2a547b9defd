"""Opt-Track: message- and space-optimal causal consistency under
partial replication.

Opt-Track (Section III-B) replaces Full-Track's n x n matrix with a
KS-style log of ``<writer, clock, Dests>`` records and prunes
destination information as soon as it becomes provably redundant, using
the two implicit conditions of the KS algorithm (see
:mod:`repro.core.log`).  The upper bound on the log is O(n^2) but the
amortized size is ~O(n) (Chandra et al. [18]), which is what produces
the paper's near-linear SM/RM growth in Figs. 2-4 versus Full-Track's
quadratic growth.

Per site s_i it maintains:

* ``clock_i`` — local write counter;
* ``Apply_i[j]`` — highest write-clock of ap_j applied at s_i (clocks of
  one writer increase along FIFO channels, so this identifies exactly
  which of ap_j's writes destined here have been applied);
* ``LOG_i`` — the KS log;
* ``LastWriteOn_i<h>`` — for each local replica x_h: the id, remaining
  destination set, and piggybacked log of the last write applied to it.

MERGE happens when a read returns a value (->co tracking); PURGE happens
on every write (condition 2) and on every merge (condition 1 + the
superseded-empty-record rule).  A higher write rate therefore means more
pruning and fewer merges — the mechanism behind the paper's observation
that Opt-Track's overhead *falls* as workloads become write-intensive.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import opt_track_entries_blocker, opt_track_entries_ready
from .base import CausalProtocol, ProtocolContext, register_protocol
from .log import OptTrackLog, PiggybackEntry, PiggybackView
from .messages import FetchMessage, OptTrackRM, OptTrackSM

__all__ = ["OptTrackProtocol"]


@register_protocol
class OptTrackProtocol(CausalProtocol):
    """The Opt-Track protocol of [12] for partially replicated DSM."""

    name = "opt-track"
    full_replication = False
    #: toggled off by the ablation bench to quantify what send-time
    #: destination pruning (implicit condition 2) buys
    prune_on_send: bool = True

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.clock = 0
        # plain list: the activation hot path reads scalars, and Python
        # ints index ~2x faster than NumPy scalars (docs/architecture.md)
        self.applied: list[int] = [0] * self.n
        self.log = OptTrackLog()
        # var -> (write id, write's remaining dests, piggybacked log)
        self.last_write_on: dict[
            int, tuple[WriteId, frozenset[int], tuple[PiggybackEntry, ...]]
        ] = {}
        # hot-path set constants and the (var, writer) -> dests-minus-
        # writer memo used on every SM apply
        self._me_set = frozenset((self.site,))
        self._apply_dests: dict[tuple[int, int], frozenset[int]] = {}

    # ------------------------------------------------------------------
    # application subsystem
    # ------------------------------------------------------------------
    def _perform_write(
        self, var: int, value: object, *, op_index: Optional[int] = None
    ) -> WriteId:
        ctx = self.ctx
        dests = ctx.placement.replica_set(var)
        self.clock += 1
        wid = WriteId(self.site, self.clock)

        ctx.collector.record_operation(True)
        ctx.history.record_write_op(
            time=ctx.clock.now, site=self.site, var=var, value=value,
            write_id=wid, op_index=op_index, dests=dests,
        )
        if ctx.tracer is not None:
            ctx.tracer.write_issued(self.site, ctx.clock.now, writer=wid.site,
                                    clock=wid.clock, var=var,
                                    log_size=len(self.log))

        # Per-destination piggyback views are computed against the
        # pre-write log; each copy keeps its own receiver in the
        # destination lists and drops the other co-destinations
        # (implicit condition 2).  The same walk strips the local log:
        # the fully stripped shared view is what the log keeps, and also
        # the log stored alongside a local apply.
        if self.prune_on_send:
            views, stored_log = self.log.piggyback_views(dests)

            def make_sm(d: int) -> OptTrackSM:
                return OptTrackSM(var=var, value=value, write_id=wid,
                                  log=views[d], issued_at=ctx.clock.now)

        else:  # ablation mode: ship the unpruned log everywhere
            snapshot = self.log.snapshot()
            stored_log = snapshot

            def make_sm(d: int) -> OptTrackSM:
                return OptTrackSM(var=var, value=value, write_id=wid,
                                  log=PiggybackView.from_entries(snapshot, d),
                                  issued_at=ctx.clock.now)

        # placement.replicas() is exactly sorted(dests), pre-sorted; the
        # message differs per destination, so this is k unicasts
        for d in ctx.placement.replicas(var):
            if d != self.site:
                self._send(d, make_sm(d), MessageKind.SM)

        # Local log update: add the record for the new write itself
        # (excluding self: applying locally is immediate), then purge.
        self.log.insert(self.site, self.clock, dests - self._me_set)
        self.log.purge(self_site=self.site, applied=self.applied)
        ctx.collector.record_log_size(len(self.log))
        ctx.collector.record_dest_lists(self.log.dest_counts())

        if self.site in dests:
            self._apply_value(var, value, wid, dests, stored_log)
            self._drain()
        return wid

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        slot = self.ctx.store.read(var)
        stored = self.last_write_on.get(var)
        if stored is not None:
            wid, wdests, piggy = stored
            self._merge_on_read(wid, wdests, piggy)
        return slot.value, slot.write_id

    def _merge_on_read(
        self,
        wid: WriteId,
        wdests: frozenset[int],
        piggy: Iterable[PiggybackEntry],
    ) -> None:
        """MERGE the read value's causal past into the local log.

        The write itself joins the log too — future writes from this
        site must order after it at its remaining destinations.
        """
        incoming = list(piggy)
        incoming.append(PiggybackEntry(wid.site, wid.clock, wdests))
        self.log.merge(incoming, self_site=self.site, applied=self.applied)

    def _fetch_requirements(self, var: int, target: int) -> tuple[tuple[int, int], ...]:
        """Writes in this site's causal past destined to ``target``: the
        log records still naming it (including, always, this site's own
        latest write multicast to it — its record keeps ``target`` until
        a later own write to ``target`` supersedes it transitively)."""
        return self.log.requirements_for(target)

    # ------------------------------------------------------------------
    # message receipt subsystem
    # ------------------------------------------------------------------
    def _is_rm(self, message: object) -> bool:
        return isinstance(message, OptTrackRM)

    def _sm_ready(self, src: int, message: object) -> bool:
        assert isinstance(message, OptTrackSM)
        return message.log.blocker(self.site, self.applied) is None

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, OptTrackSM)
        return message.log.blocker(self.site, self.applied)

    def _apply_sm(self, src: int, message: object) -> None:
        assert isinstance(message, OptTrackSM)
        self.ctx.collector.record_visibility(self.ctx.clock.now - message.issued_at)
        wid = message.write_id
        # The write's remaining destinations exclude the writer: if it
        # replicates the variable it applied its own write at the write
        # event, causally before this receipt (condition 1 holds there).
        dkey = (message.var, wid.site)
        dests = self._apply_dests.get(dkey)
        if dests is None:
            dests = self._apply_dests[dkey] = (
                self.ctx.placement.replica_set(message.var) - {wid.site}
            )
        # Implicit condition 1: "this site is a destination" is dead
        # information from this apply onward — the stored log is the
        # piggybacked view with self stripped, i.e. the base every copy
        # of this write shares.
        self._apply_value(message.var, message.value, wid, dests,
                          message.log.stored(self.site))

    def _apply_value(
        self,
        var: int,
        value: object,
        wid: WriteId,
        dests: frozenset[int],
        stored_log: tuple[PiggybackEntry, ...],
    ) -> None:
        ctx = self.ctx
        ctx.store.apply(var, value, wid, ctx.clock.now)
        if wid.clock <= self.applied[wid.site]:
            raise AssertionError(
                f"FIFO violation: applying {wid} after clock {self.applied[wid.site]}"
            )
        self.applied[wid.site] = wid.clock
        self._note_applied(wid.site)
        self.last_write_on[var] = (wid, dests - self._me_set, stored_log)
        if ctx.history.enabled:
            ctx.history.record_apply(time=ctx.clock.now, site=self.site, var=var, write_id=wid)

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        slot = self.ctx.store.read(message.var)
        stored = self.last_write_on.get(message.var)
        if stored is None:
            wid: Optional[WriteId] = None
            rm_log: tuple[PiggybackEntry, ...] = ()
        else:
            wid, wdests, piggy = stored
            # LastWriteOn<h> as shipped: the write's own record rides with
            # its dependency log so the reader can merge all of it.
            rm_log = piggy + (PiggybackEntry(wid.site, wid.clock, wdests),)
        self.ctx.history.record_remote_return(
            time=self.ctx.clock.now, site=self.site, peer=src, var=message.var
        )
        self._send(
            src,
            OptTrackRM(
                var=message.var, value=slot.value, write_id=wid,
                log=rm_log, request_id=message.request_id,
            ),
            MessageKind.RM,
        )

    def _rm_ready(self, src: int, message: object) -> bool:
        assert isinstance(message, OptTrackRM)
        return opt_track_entries_ready(message.log, self.site, self.applied)

    def _rm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, OptTrackRM)
        return opt_track_entries_blocker(message.log, self.site, self.applied)

    def _complete_rm(self, src: int, message: object) -> None:
        assert isinstance(message, OptTrackRM)
        self.log.merge(message.log, self_site=self.site, applied=self.applied)
        self._complete_fetch(message.request_id, message.value, message.write_id)

    # ------------------------------------------------------------------
    # crash-recovery hooks
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        return {
            "clock": self.clock,
            "applied": list(self.applied),
            "log": self.log.copy(),
            "last_write_on": dict(self.last_write_on),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.clock = extra["clock"]
        # list(...) also normalizes NumPy arrays from pre-refactor blobs
        self.applied = [int(c) for c in extra["applied"]]
        self.log = extra["log"].copy()
        self.last_write_on = dict(extra["last_write_on"])

    def knows_write(self, wid: WriteId) -> Optional[bool]:
        # Apply_i[j] is the highest write clock of ap_j applied here and
        # clocks of destined-here writes increase along FIFO channels,
        # so the comparison is sound in both directions.
        return bool(self.applied[wid.site] >= wid.clock)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _view_grow(self, capacity: int) -> None:
        # the KS log is keyed by writer id, not indexed — no growth needed
        while len(self.applied) < capacity:
            self.applied.append(0)

    def _view_change_extra(self, view) -> None:
        # the (var, writer) -> dests memo interned the *old* placement's
        # replica sets; a view change remaps placement, so drop it
        self._apply_dests.clear()

    # ------------------------------------------------------------------
    def log_size(self) -> int:
        return len(self.log)


@register_protocol
class OptTrackNoPruneProtocol(OptTrackProtocol):
    """Ablation: Opt-Track without send-time destination pruning.

    Implicit condition 2 is the mechanism behind the KS algorithm's
    amortized-O(n) log (Chandra et al. [18]); disabling it leaves MERGE
    and condition-1 self-removal only.  Still causally *correct* (the
    metadata over-approximates), but logs and messages balloon — the
    quantitative gap is measured by ``benchmarks/bench_ablation_pruning``.
    Not part of the paper's protocol suite; do not use outside ablations.
    """

    name = "opt-track-noprune"
    prune_on_send = False
