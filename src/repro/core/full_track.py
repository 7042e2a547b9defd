"""Full-Track: matrix-clock causal consistency under partial replication.

Full-Track (Section III-A) is optimal in the Baldoni et al. sense — it
applies updates as early as the optimal activation predicate A_OPT
allows and tracks only the ->co relation, eliminating false causality
from mere message receipt — but it pays for that with an n x n ``Write``
matrix piggybacked on every SM and RM message, giving the O(n^2 p w +
n r (n - p)) total message-size complexity the paper derives.

Per site s_i it maintains:

* ``Write_i[j][k]`` — updates sent by ap_j to site s_k in the causal
  past (under ->co);
* ``Apply_i[j]`` — updates written by ap_j applied at s_i;
* ``LastWriteOn_i<h>`` — the Write matrix that travelled with the last
  write applied to local variable x_h.

The piggybacked matrix is merged into the local matrix only when a
*read* returns the associated value — never at message receipt — which
is precisely what makes the tracked relation ->co instead of Lamport's
happened-before.
"""

from __future__ import annotations

from typing import Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import full_track_rm_blocker, full_track_sm_blocker
from .base import CausalProtocol, ProtocolContext, register_protocol
from .clocks import MatrixClock
from .messages import FetchMessage, FullTrackRM, FullTrackSM

__all__ = ["FullTrackProtocol"]


@register_protocol
class FullTrackProtocol(CausalProtocol):
    """The Full-Track protocol of [12] for partially replicated DSM."""

    name = "full-track"
    full_replication = False

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.write_clock = MatrixClock(self.n)
        # plain list: the activation hot path reads scalars, and Python
        # ints index ~2x faster than NumPy scalars (docs/architecture.md)
        self.applied: list[int] = [0] * self.n
        self._write_count = 0
        # var -> (write id, Write matrix at write time); matrices stored
        # here are shared snapshots and must never be mutated.
        self.last_write_on: dict[int, tuple[WriteId, MatrixClock]] = {}

    # ------------------------------------------------------------------
    # application subsystem
    # ------------------------------------------------------------------
    def _perform_write(
        self, var: int, value: object, *, op_index: Optional[int] = None
    ) -> WriteId:
        ctx = self.ctx
        dests = ctx.placement.replicas(var)
        self._write_count += 1
        wid = WriteId(self.site, self._write_count)
        self.write_clock.increment(self.site, dests)
        snapshot = self.write_clock.copy()

        ctx.collector.record_operation(True)
        ctx.history.record_write_op(
            time=ctx.clock.now, site=self.site, var=var, value=value,
            write_id=wid, op_index=op_index, dests=dests,
        )
        if ctx.tracer is not None:
            ctx.tracer.write_issued(self.site, ctx.clock.now, writer=wid.site,
                                    clock=wid.clock, var=var)
        sm = FullTrackSM(var=var, value=value, write_id=wid, matrix=snapshot,
                         issued_at=ctx.clock.now)
        self._multicast(dests, sm, MessageKind.SM)

        if self.site in dests:
            self._apply_local(var, value, wid, snapshot)
            self._drain()  # a local apply can unblock buffered updates
        return wid

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        slot = self.ctx.store.read(var)
        stored = self.last_write_on.get(var)
        if stored is not None:
            # merge-on-read: this is where ->co knowledge propagates
            self.write_clock.merge(stored[1])
        return slot.value, slot.write_id

    def _fetch_requirements(self, var: int, target: int) -> tuple[tuple[int, int], ...]:
        """Writes in this site's causal past destined to ``target``:
        exactly the non-zero entries of the Write matrix column for it
        (read from the cached plain-int column)."""
        column = self.write_clock.column_list(target)
        return tuple([(j, c) for j, c in enumerate(column) if c > 0])

    # ------------------------------------------------------------------
    # message receipt subsystem
    # ------------------------------------------------------------------
    def _is_rm(self, message: object) -> bool:
        return isinstance(message, FullTrackRM)

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, FullTrackSM)
        return full_track_sm_blocker(
            message.matrix, message.write_id.site, self.site, self.applied
        )

    def _apply_sm(self, src: int, message: object) -> None:
        assert isinstance(message, FullTrackSM)
        self.ctx.collector.record_visibility(self.ctx.clock.now - message.issued_at)
        self._apply_local(message.var, message.value, message.write_id, message.matrix)

    def _apply_local(
        self, var: int, value: object, wid: WriteId, matrix: MatrixClock
    ) -> None:
        ctx = self.ctx
        ctx.store.apply(var, value, wid, ctx.clock.now)
        self.applied[wid.site] += 1
        self._note_applied(wid.site)
        self.last_write_on[var] = (wid, matrix)
        if ctx.history.enabled:
            ctx.history.record_apply(time=ctx.clock.now, site=self.site, var=var, write_id=wid)

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        slot = self.ctx.store.read(message.var)
        stored = self.last_write_on.get(message.var)
        if stored is None:
            wid, matrix = None, MatrixClock(self.n)  # never written: no deps
        else:
            wid, matrix = stored
        self.ctx.history.record_remote_return(
            time=self.ctx.clock.now, site=self.site, peer=src, var=message.var
        )
        rm = FullTrackRM(var=message.var, value=slot.value, write_id=wid,
                         matrix=matrix, request_id=message.request_id)
        if matrix.n == self.n:
            self._send(src, rm, MessageKind.RM)
            return
        # a matrix stored before a view change is narrower than this
        # epoch's: the clock width is part of the slot key, so book it
        # under a slot of its own width, then let the next RM bind again
        self._msg_slots.pop(MessageKind.RM, None)
        self._send(src, rm, MessageKind.RM)
        self._msg_slots.pop(MessageKind.RM)

    def _rm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, FullTrackRM)
        return full_track_rm_blocker(message.matrix, self.site, self.applied)

    def _complete_rm(self, src: int, message: object) -> None:
        assert isinstance(message, FullTrackRM)
        self.write_clock.merge(message.matrix)
        self._complete_fetch(message.request_id, message.value, message.write_id)

    # ------------------------------------------------------------------
    # crash-recovery hooks
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        # matrices in last_write_on are immutable-by-convention snapshots
        # and can be shared; write_clock is mutated by merges, so copy it
        # on both capture and restore (a checkpoint may be restored twice)
        return {
            "write_clock": self.write_clock.copy(),
            "applied": list(self.applied),
            "write_count": self._write_count,
            "last_write_on": dict(self.last_write_on),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.write_clock = extra["write_clock"].copy()
        # list(...) also normalizes NumPy arrays from pre-refactor blobs
        self.applied = [int(c) for c in extra["applied"]]
        self._write_count = extra["write_count"]
        self.last_write_on = dict(extra["last_write_on"])

    # knows_write stays None: Apply_i counts applications destined here,
    # not writer clocks, so it cannot be compared against a WriteId

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _view_grow(self, capacity: int) -> None:
        # grow from actual sizes: a freshly restored (pre-growth)
        # checkpoint may be smaller than self.n
        self.write_clock.grow(capacity)
        while len(self.applied) < capacity:
            self.applied.append(0)

    # ------------------------------------------------------------------
    def log_size(self) -> int:
        """Matrix clocks are fixed-size: n^2 counters per site."""
        return self.n * self.n
