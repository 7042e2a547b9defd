"""Opt-Track-CRP: Opt-Track specialized to full replication.

Under full replication (Section III-C) every write goes to every site,
so destination lists are pointless: each log record collapses to a
``(writer, clock)`` 2-tuple — O(1) instead of O(n) per record — and the
local log resets to the singleton {own write} after every write, because
a write's multicast transitively carries all its dependencies.  The log
therefore holds at most d + 1 entries (d = reads since the last local
write, at most one per distinct writing site), giving the O(n w d) total
message-size complexity that beats optP's O(n^2 w).

Reads are always local; no FM/RM traffic exists.  The SM activation
predicate combines a per-writer FIFO check (full replication means the
local applied clock of the writer must be exactly clock - 1) with the
piggybacked dependencies.
"""

from __future__ import annotations

from typing import Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import crp_sm_blocker
from .base import CausalProtocol, ProtocolContext, register_protocol
from .log import TupleLog
from .messages import CRPSM, FetchMessage

__all__ = ["OptTrackCRPProtocol"]


@register_protocol
class OptTrackCRPProtocol(CausalProtocol[WriteId]):
    """The Opt-Track-CRP protocol of [12] for fully replicated DSM.

    LastWriteOn<h> is the id of the last write applied to x_h: under full
    replication only the 2-tuple itself needs storing (Section III-C:
    causal application order covers its dependencies).
    """

    name = "opt-track-crp"
    full_replication = True

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.clock = 0
        self.log = TupleLog()

    # ------------------------------------------------------------------
    # application subsystem
    # ------------------------------------------------------------------
    def _perform_write(
        self, var: int, value: object, *, op_index: Optional[int] = None
    ) -> WriteId:
        ctx = self.ctx
        self.clock += 1
        wid = WriteId(self.site, self.clock)

        dests = range(self.n)
        self._issue_write(var, value, wid, dests, op_index,
                          log_size=len(self.log))

        piggy = self.log.entries()  # the write's dependencies (pre-reset log)
        sm = CRPSM(var=var, value=value, write_id=wid, log=piggy,
                   issued_at=ctx.clock.now)
        self._multicast(dests, sm, MessageKind.SM)

        # Local apply + log reset: the new write subsumes everything the
        # log used to carry.
        self._apply_write(var, value, wid, wid.clock, wid, ctx.clock.now)
        self.log.reset(self.site, self.clock)
        ctx.collector.record_log_size(len(self.log))
        self._drain()
        return wid

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        slot = self.ctx.store.read(var)
        wid = self.last_write_on.get(var)
        if wid is not None:
            # merge-on-read: at most one new entry, and a newer clock from
            # the same writer subsumes an older one
            self.log.add(wid.site, wid.clock)
            self.ctx.collector.record_log_size(len(self.log))
        return slot.value, slot.write_id

    # ------------------------------------------------------------------
    # message receipt subsystem
    # ------------------------------------------------------------------
    def _is_rm(self, message: object) -> bool:
        return False  # reads never leave the site under full replication

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        raise RuntimeError("Opt-Track-CRP must never receive fetch requests")

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, CRPSM)
        wid = message.write_id
        return crp_sm_blocker(wid.site, wid.clock, message.log, self.applied)

    def _apply_sm(self, src: int, message: object) -> None:
        assert isinstance(message, CRPSM)
        wid = message.write_id
        self._apply_write(message.var, message.value, wid, wid.clock, wid,
                          message.issued_at)

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
