"""HB-Track: the non-optimal baseline that tracks happened-before.

The paper's protocols all track the ->co relation of Baldoni et al.: a
piggybacked clock joins the local clock only when a *read* returns the
value that travelled with it.  The classical alternative — what a causal
*broadcast* layer (Birman–Schiper–Stephenson style) does — merges the
piggybacked clock at message **receipt**, thereby tracking Lamport's
happened-before relation ->, a strict superset of ->co.

Every dependency ->co induces is also induced by ->, so HB-Track is
still causally consistent (safety is preserved; the property tests hold
it to the same checker).  What it adds is **false causality**: updates
wait for other updates merely because their writers had *received*
unrelated messages, not read them.  Under full replication the metadata
is the same size-n vector as optP, so the difference between optP and
HB-Track isolates exactly what the optimal activation predicate buys:
shorter activation buffering and lower visibility latency, measured by
``benchmarks/bench_ablation_false_causality.py``.

This protocol exists for that ablation; it is not part of the paper's
suite.  It *is* optP with the merge moved from read to receipt, and is
written as exactly that: everything else — write path, activation
predicate, snapshots, view growth — is inherited, so the two cannot
drift apart.
"""

from __future__ import annotations

from typing import Optional

from ..memory.store import WriteId
from .base import register_protocol
from .clocks import VectorClock
from .optp import OptPProtocol

__all__ = ["HBTrackProtocol"]


@register_protocol
class HBTrackProtocol(OptPProtocol):
    """Full-replication causal memory tracking -> instead of ->co."""

    name = "hb-track"

    def _local_read(self, var: int) -> tuple[object, Optional[WriteId]]:
        # no merge here: under -> tracking the dependency was already
        # absorbed when the update message was received
        slot = self.ctx.store.read(var)
        return slot.value, slot.write_id

    def _apply_value(
        self, var: int, value: object, wid: WriteId, vector: VectorClock
    ) -> None:
        super()._apply_value(var, value, wid, vector)
        # merge-on-receipt: THE defining difference — every applied
        # update becomes a dependency of all future local writes,
        # whether or not its value is ever read (false causality)
        self.write_clock.merge(vector)
