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
class OptPProtocol(CausalProtocol):
    """The optP protocol of Baldoni et al. for fully replicated DSM."""

    name = "optp"
    full_replication = True

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.write_clock = VectorClock(self.n)
        # plain list: the activation hot path reads scalars, and Python
        # ints index ~2x faster than NumPy scalars (docs/architecture.md)
        self.applied: list[int] = [0] * self.n
        # var -> (write id, Write vector at write time); vectors stored
        # here are shared snapshots and must never be mutated.
        self.last_write_on: dict[int, tuple[WriteId, VectorClock]] = {}

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

        dests = self._broadcast_dests()
        ctx.collector.record_operation(True)
        if ctx.history is not None:
            ctx.history.record_write_op(
                time=ctx.clock.now, site=self.site, var=var, value=value,
                write_id=wid, op_index=op_index, dests=dests,
            )
        if ctx.tracer is not None:
            ctx.tracer.write_issued(self.site, ctx.clock.now, writer=wid.site,
                                    clock=wid.clock, var=var)
        sm = OptPSM(var=var, value=value, write_id=wid, vector=snapshot,
                    issued_at=ctx.clock.now)
        self._multicast(dests, sm, MessageKind.SM)

        self._apply_value(var, value, wid, snapshot)
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
        self.ctx.collector.record_visibility(self.ctx.clock.now - message.issued_at)
        self._apply_value(message.var, message.value, message.write_id, message.vector)

    def _apply_value(
        self, var: int, value: object, wid: WriteId, vector: VectorClock
    ) -> None:
        ctx = self.ctx
        ctx.store.apply(var, value, wid, ctx.clock.now)
        if self.applied[wid.site] != wid.clock - 1:
            raise AssertionError(
                f"activation violated FIFO: {wid} after count {self.applied[wid.site]}"
            )
        self.applied[wid.site] = wid.clock
        self._note_applied(wid.site)
        self.last_write_on[var] = (wid, vector)
        if ctx.history is not None:
            ctx.history.record_apply(time=ctx.clock.now, site=self.site, var=var, write_id=wid)

    # ------------------------------------------------------------------
    # crash-recovery hooks
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict:
        return {
            "write_clock": self.write_clock.copy(),
            "applied": list(self.applied),
            "last_write_on": dict(self.last_write_on),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.write_clock = extra["write_clock"].copy()
        # list(...) also normalizes NumPy arrays from pre-refactor blobs
        self.applied = [int(c) for c in extra["applied"]]
        self.last_write_on = dict(extra["last_write_on"])

    def knows_write(self, wid: WriteId) -> Optional[bool]:
        # Apply_i[j] counts ap_j's writes contiguously (every write goes
        # everywhere under full replication)
        return bool(self.applied[wid.site] >= wid.clock)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _view_grow(self, capacity: int) -> None:
        self.write_clock.grow(capacity)
        while len(self.applied) < capacity:
            self.applied.append(0)

    # ------------------------------------------------------------------
    def log_size(self) -> int:
        """optP metadata is a fixed-size vector: n counters."""
        return self.n
