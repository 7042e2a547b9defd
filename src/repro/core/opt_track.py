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
* ``LastWriteOn_i<h>`` — for each local replica x_h: the id, the replica
  set as of the apply, the applier and the log of the last write applied.

MERGE happens when a read returns a value (->co tracking); PURGE happens
on every write (condition 2) and on every merge (condition 1 + the
superseded-empty-record rule).  A higher write rate therefore means more
pruning and fewer merges — the mechanism behind the paper's observation
that Opt-Track's overhead *falls* as workloads become write-intensive.
"""

from __future__ import annotations

from typing import Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import opt_track_entries_blocker
from .base import CausalProtocol, ProtocolContext, register_protocol
from .log import OptTrackLog, PiggybackEntry, PiggybackView
from .messages import FetchMessage, OptTrackRM, OptTrackSM

__all__ = ["OptTrackProtocol"]


#: LastWriteOn<h>: the write's id, h's replica set as of the apply (the
#: placement's own object), the applying site and the log that travelled
#: with the write
_LastWrite = tuple[WriteId, frozenset[int], int, tuple[PiggybackEntry, ...]]


def _shipped_log(stored: _LastWrite) -> tuple[PiggybackEntry, ...]:
    """LastWriteOn<h> as a read merges or ships it: the write's log, then
    the write's own record naming its remaining destinations — the replica
    set less the writer (it applied its own write at the write event) and
    less the applier (implicit condition 1).  Derived here, at a read,
    rather than stored at every apply."""
    wid, replicas, applier, piggy = stored
    return piggy + (PiggybackEntry(
        wid.site, wid.clock, replicas.difference((wid.site, applier))),)


@register_protocol
class OptTrackProtocol(CausalProtocol[_LastWrite]):
    """The Opt-Track protocol of [12] for partially replicated DSM."""

    name = "opt-track"
    full_replication = False
    #: toggled off by the ablation bench to quantify what send-time
    #: destination pruning (implicit condition 2) buys
    prune_on_send: bool = True

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.clock = 0
        self.log = OptTrackLog()

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
        self._issue_write(var, value, wid, dests, op_index,
                          log_size=len(self.log))

        # Per-destination piggyback views are computed against the
        # pre-write log; each copy keeps its own receiver in the
        # destination lists and drops the other co-destinations
        # (implicit condition 2).  The same walk strips the local log:
        # the fully stripped shared view is what the log keeps, and also
        # the log stored alongside a local apply.  The copies differ per
        # destination and leave as one multicast, to the remote replicas
        # in placement.replicas() order (exactly sorted(dests)).
        targets = [d for d in ctx.placement.replicas(var) if d != self.site]
        if self.prune_on_send:
            views, stored_log = self.log.piggyback_views(dests)
            logs = [views[d] for d in targets]
        else:  # ablation mode: ship the unpruned log everywhere
            stored_log = self.log.snapshot()
            logs = [PiggybackView.from_entries(stored_log, d) for d in targets]
        if targets:
            now = ctx.clock.now
            self._multicast_each(targets, [
                OptTrackSM(var=var, value=value, write_id=wid, log=log,
                           issued_at=now)
                for log in logs
            ])

        # Local log update: add the record for the new write itself
        # (excluding self: applying locally is immediate), then purge.
        # Condition 1 has nothing to strip here: outside a merge no
        # record names this site (tests/test_protocols.py checks it
        # after every operation), so only superseded empty records go.
        self.log.insert(self.site, self.clock, dests.difference((self.site,)))
        self.log.purge()
        ctx.collector.record_log_size(len(self.log))
        ctx.collector.record_dest_lists(self.log.dest_counts())

        if self.site in dests:
            self._apply_write(var, value, wid, wid.clock,
                              (wid, dests, self.site, stored_log), ctx.clock.now)
            self._drain()
        return wid

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        slot = self.ctx.store.read(var)
        stored = self.last_write_on.get(var)
        if stored is not None:
            # MERGE the value's causal past, its write included: future
            # writes from here must order after it at its remaining dests
            self.log.merge(_shipped_log(stored), self_site=self.site,
                           applied=self.applied)
        return slot.value, slot.write_id

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

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, OptTrackSM)
        return message.log.blocker(self.site, self.applied)

    def _apply_sm(self, src: int, message: object) -> None:
        assert isinstance(message, OptTrackSM)
        wid = message.write_id
        var = message.var
        # Implicit condition 1: "this site is a destination" is dead
        # information from this apply onward — the remaining destinations
        # derived from LastWriteOn exclude this site and the writer (if it
        # replicates the variable it applied its own write at the write
        # event, causally before any receipt), and the stored log is the
        # piggybacked view with self stripped, i.e. the base every copy
        # of this write shares.
        self._apply_write(var, message.value, wid, wid.clock,
                          (wid, self.ctx.placement.replica_set(var), self.site,
                           message.log.stored(self.site)),
                          message.issued_at)

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        slot = self.ctx.store.read(message.var)
        stored = self.last_write_on.get(message.var)
        if stored is None:
            wid: Optional[WriteId] = None
            rm_log: tuple[PiggybackEntry, ...] = ()
        else:
            wid, rm_log = stored[0], _shipped_log(stored)
        self._send(
            src,
            OptTrackRM(
                var=message.var, value=slot.value, write_id=wid,
                log=rm_log, request_id=message.request_id,
            ),
            MessageKind.RM,
        )

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
        return {"clock": self.clock, "log": self.log.copy()}

    def _restore_extra(self, extra: dict) -> None:
        self.clock = extra["clock"]
        self.log = extra["log"].copy()

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
