"""In-process service cluster: the live stack on the simulation kernel.

:class:`LoopbackCluster` wires N :class:`~repro.service.node.NodeCore`
instances together through the *actual* service machinery — every
message rides a :class:`~repro.service.channel.ServiceTransport`, is
encoded to frame bytes, decoded back by ``ServiceTransport.on_frame`` on
arrival, and is paced by retransmission timers — but each frame is a
zero-delay event of a :class:`~repro.sim.engine.Simulator`, which is
also every transport's clock.  That is the live substrate minus sockets
and wall time (and the TCP stream's length prefix and hello), driven
through :class:`~repro.cluster.Cluster`'s surface: one test body runs on
either substrate.  A frame is in flight until time moves, as a message
is on the simulator.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .cluster import Cluster, ReadCallback
from .core.netpolicy import RetransmitPolicy
from .memory.store import WriteId
from .metrics.collector import MetricsCollector
from .service.bootstrap import ClusterTopology, build_placement
from .service.channel import ServiceTransport
from .service.node import NodeCore
from .sim.engine import Simulator
from .verify.history import HistoryRecorder

__all__ = ["LoopbackCluster"]


class LoopbackCluster(Cluster):
    """N service node cores joined by zero-delay kernel events."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self.sim = Simulator()
        self.placement = build_placement(topology)
        self.history = HistoryRecorder()
        policy = RetransmitPolicy(**topology.retransmit)
        self.transports = [
            ServiceTransport(site, topology.n_sites, self.sim,
                             partial(self._send_frame, site),
                             partial(self._deliver, site),
                             collector=MetricsCollector(), policy=policy)
            for site in range(topology.n_sites)
        ]
        self.nodes = [
            NodeCore(site=site, n_sites=topology.n_sites,
                     placement=self.placement, protocol=topology.protocol,
                     clock=self.sim, transport=transport,
                     collector=transport.collector, history=self.history)
            for site, transport in enumerate(self.transports)
        ]
        self.protocols = [node.protocol for node in self.nodes]

    def _send_frame(self, src: int, dst: int, frame: bytes) -> None:
        self.sim.post(self.sim.now, self._arrive, src, dst, frame)

    def _arrive(self, src: int, dst: int, frame: bytes) -> None:
        self.transports[dst].on_frame(frame)

    def _deliver(self, site: int, src: int, message: object) -> None:
        self.nodes[site].on_message(src, message)

    # ------------------------------------------------------------------
    def write(self, site: int, var: int, value: object) -> WriteId:
        return self.nodes[site].put(var, value)

    def _issue_read(self, site: int, var: int, on_complete: ReadCallback) -> None:
        self.nodes[site].get(var, on_complete)

    def _unsettled(self) -> Optional[str]:
        unacked = {t.site: t.unacked_count()
                   for t in self.transports if t.unacked_count()}
        if unacked:
            return f"cluster cannot settle; frames unacked: {unacked}"
        return None
