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

from functools import lru_cache
from typing import Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import full_track_rm_blocker, full_track_sm_blocker
from .base import CausalProtocol, ProtocolContext, register_protocol
from .clocks import MatrixClock
from .messages import FetchMessage, FullTrackRM, FullTrackSM

__all__ = ["FullTrackProtocol"]


@lru_cache(maxsize=None)
def _read_only_zero(n: int) -> MatrixClock:
    """The matrix an RM for a never-written variable carries (no
    dependencies): one read-only clock per width, shared by every such
    RM of every core, so none is built per fetch."""
    clock = MatrixClock(n)
    clock.m.setflags(write=False)
    return clock


@register_protocol
class FullTrackProtocol(CausalProtocol[tuple[WriteId, MatrixClock]]):
    """The Full-Track protocol of [12] for partially replicated DSM."""

    name = "full-track"
    full_replication = False

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.write_clock = MatrixClock(self.n)
        self._write_count = 0

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
        snapshot.m.setflags(write=False)  # sent, and kept in LastWriteOn

        self._issue_write(var, value, wid, dests, op_index)
        sm = FullTrackSM(var=var, value=value, write_id=wid, matrix=snapshot,
                         issued_at=ctx.clock.now)
        self._multicast(dests, sm, MessageKind.SM)

        if self.site in dests:
            self._apply_write(var, value, wid, self.applied[self.site] + 1,
                              (wid, snapshot), ctx.clock.now)
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
        wid = message.write_id
        self._apply_write(message.var, message.value, wid,
                          self.applied[wid.site] + 1, (wid, message.matrix),
                          message.issued_at)

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        slot = self.ctx.store.read(message.var)
        stored = self.last_write_on.get(message.var)
        if stored is None:  # never written: no dependencies
            wid, matrix = None, _read_only_zero(self.n)
        else:
            wid, matrix = stored
        rm = FullTrackRM(var=message.var, value=slot.value, write_id=wid,
                         matrix=matrix, request_id=message.request_id)
        self._send(src, rm, MessageKind.RM)

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
        # matrices in last_write_on are read-only snapshots and can be
        # shared; write_clock is mutated by merges, so copy it
        # on both capture and restore (a checkpoint may be restored twice)
        return {
            "write_clock": self.write_clock.copy(),
            "write_count": self._write_count,
        }

    def _restore_extra(self, extra: dict) -> None:
        self.write_clock = extra["write_clock"].copy()
        self._write_count = extra["write_count"]

    def knows_write(self, wid: WriteId) -> Optional[bool]:
        # Apply_i counts applications destined here, not writer clocks,
        # so it cannot be compared against a WriteId
        return None

    # ------------------------------------------------------------------
    def log_size(self) -> int:
        """Matrix clocks are fixed-size: n^2 counters per site."""
        return self.n * self.n
