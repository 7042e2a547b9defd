"""In-process service cluster: real service stack, no sockets, no time.

:class:`LoopbackCluster` wires N :class:`~repro.service.node.NodeCore`
instances together through the *actual* service machinery — every
message rides a :class:`~repro.service.channel.ServiceTransport`, is
encoded to canonical frame bytes and back by :mod:`repro.service.codec`,
and is paced by retransmission timers — but frames travel over an
in-process FIFO hub and timers fire from a shared deterministic
:class:`~repro.service.runtime.StepClock`.  The result is the live
substrate minus the two effects that make it nondeterministic (sockets
and wall time), which is exactly what the sim/live equivalence property
test needs: same seeded workload, both substrates, same causal history
verdict and same final stores.

What a transport hands the hub is already the frame's bytes — the ones
a socket would carry — and the hub parses them with ``codec.loads``
before handing them to the receiving transport, so the codec sits in
the data path here just as it does on a real wire.  Only the length
prefix and the per-link hello, which belong to the TCP stream, are
absent.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.netpolicy import RetransmitPolicy
from .bootstrap import ClusterTopology, build_placement
from .channel import ServiceTransport
from .codec import loads
from .node import NodeCore
from .runtime import StepClock

__all__ = ["LoopbackCluster"]


class LoopbackCluster:
    """N service node cores joined by an in-process frame hub."""

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        self.topology = topology
        self.clock = StepClock()
        self._queue: deque[tuple[int, bytes]] = deque()  # (dst, frame bytes)
        placement = build_placement(topology)
        if policy is None:
            policy = (
                RetransmitPolicy(**topology.retransmit)
                if topology.retransmit
                else RetransmitPolicy()
            )
        self.transports: list[ServiceTransport] = []
        self.nodes: list[NodeCore] = []
        for site in range(topology.n_sites):
            transport = ServiceTransport(
                site,
                topology.n_sites,
                self.clock,
                self._send_frame,
                self._make_deliver(site),
                policy=policy,
            )
            self.transports.append(transport)
            self.nodes.append(
                NodeCore(
                    site=site,
                    n_sites=topology.n_sites,
                    placement=placement,
                    protocol=topology.protocol,
                    clock=self.clock,
                    transport=transport,
                )
            )

    # ------------------------------------------------------------------
    # the "wire": FIFO byte frames between transports
    # ------------------------------------------------------------------
    def _send_frame(self, dst: int, frame: bytes) -> None:
        self._queue.append((dst, frame))

    def _make_deliver(self, site: int):
        def deliver(src: int, message: object) -> None:
            self.nodes[site].on_message(src, message)

        return deliver

    # ------------------------------------------------------------------
    # pumping
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Deliver every queued frame (and frames those deliveries send);
        returns how many frames moved."""
        moved = 0
        while self._queue:
            dst, payload = self._queue.popleft()
            self.transports[dst].on_frame(loads(payload))
            moved += 1
        return moved

    def settle(self, *, step_ms: float = 50.0, max_steps: int = 10_000) -> None:
        """Pump frames and advance timers until full quiescence."""
        for _ in range(max_steps):
            self.pump()
            if self.idle:
                return
            self.clock.advance(step_ms)
        raise RuntimeError("loopback cluster failed to quiesce")

    @property
    def idle(self) -> bool:
        return (
            not self._queue
            and all(t.unacked_count() == 0 for t in self.transports)
            and all(n.protocol.pending_count == 0 for n in self.nodes)
        )

    # ------------------------------------------------------------------
    # application surface
    # ------------------------------------------------------------------
    def put(self, site: int, var: int, value: object):
        wid = self.nodes[site].put(var, value)
        self.pump()
        return wid

    def get(self, site: int, var: int):
        """Blocking read: pumps (advancing time if needed) until the
        causal read completes; returns (value, write_id, was_remote)."""
        result: list = []

        def _done(value, wid, remote):
            result.append((value, wid, remote))

        self.nodes[site].get(var, _done)
        for _ in range(10_000):
            if result:
                return result[0]
            self.pump()
            if not result:
                self.clock.advance(50.0)
        raise RuntimeError(f"read of x{var} at site {site} never completed")

    def histories(self):
        """Per-site event lists in site order (for the merge helper)."""
        return [node.history.events for node in self.nodes]
