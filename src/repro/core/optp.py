"""optP: the Baldoni et al. [13] full-replication baseline.

optP implements causal memory with the optimal activation predicate but
tracks causality with a size-n ``Write`` vector piggybacked on every
update — O(n) metadata per SM and O(n^2 w) total, versus
Opt-Track-CRP's O(d) per SM.  It is the comparison baseline for Figs.
5-8 and Table III.

As with the other protocols the piggybacked clock merges into the local
clock only when a read returns the associated value (->co tracking).
Reads are always local; there is no FM/RM traffic.
"""

from __future__ import annotations

from typing import Optional

from ..memory.store import WriteId
from ..metrics.collector import MessageKind
from .activation import optp_sm_blocker
from .base import CausalProtocol, ProtocolContext, register_protocol
from .clocks import VectorClock
from .messages import FetchMessage, OptPSM

__all__ = ["OptPProtocol"]


@register_protocol
class OptPProtocol(CausalProtocol[tuple[WriteId, VectorClock]]):
    """The optP protocol of Baldoni et al. for fully replicated DSM."""

    name = "optp"
    full_replication = True

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.write_clock = VectorClock(self.n)

    # ------------------------------------------------------------------
    # application subsystem
    # ------------------------------------------------------------------
    def _perform_write(
        self, var: int, value: object, *, op_index: Optional[int] = None
    ) -> WriteId:
        ctx = self.ctx
        clock = self.write_clock.increment(self.site)
        wid = WriteId(self.site, clock)
        snapshot = self.write_clock.copy()
        snapshot.v.setflags(write=False)  # sent, and kept in LastWriteOn

        dests = range(self.n)
        self._issue_write(var, value, wid, dests, op_index)
        sm = OptPSM(var=var, value=value, write_id=wid, vector=snapshot,
                    issued_at=ctx.clock.now)
        self._multicast(dests, sm, MessageKind.SM)

        self._apply_write(var, value, wid, clock, (wid, snapshot),
                          ctx.clock.now)
        self._drain()
        return wid

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        slot = self.ctx.store.read(var)
        stored = self.last_write_on.get(var)
        if stored is not None:
            self.write_clock.merge(stored[1])  # merge-on-read
        return slot.value, slot.write_id

    # ------------------------------------------------------------------
    # message receipt subsystem
    # ------------------------------------------------------------------
    def _is_rm(self, message: object) -> bool:
        return False

    def _serve_fetch(self, src: int, message: FetchMessage) -> None:
        raise RuntimeError("optP must never receive fetch requests")

    def _sm_blocker(self, src: int, message: object) -> Optional[tuple[int, int]]:
        assert isinstance(message, OptPSM)
        return optp_sm_blocker(message.write_id.site, message.vector, self.applied)

    def _apply_sm(self, src: int, message: object) -> None:
        assert isinstance(message, OptPSM)
        wid = message.write_id
        self._apply_write(message.var, message.value, wid, wid.clock,
                          (wid, message.vector), message.issued_at)

    # ------------------------------------------------------------------
    # crash-recovery hooks
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        return {"write_clock": self.write_clock.copy()}

    def _restore_extra(self, extra: dict) -> None:
        self.write_clock = extra["write_clock"].copy()

    # ------------------------------------------------------------------
    def log_size(self) -> int:
        """optP metadata is a fixed-size vector: n counters."""
        return self.n
