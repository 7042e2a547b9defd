"""A live causal KV node: the unmodified protocol core behind sockets.

Two halves, split along the port layer:

* :class:`NodeCore` is substrate-independent — it owns one
  :class:`~repro.core.base.CausalProtocol` instance plus its
  :class:`~repro.core.base.ProtocolContext` and exposes the application
  surface (``put``/``get``/``on_message``/``status``).  It receives a
  :class:`~repro.core.ports.Clock` and a
  :class:`~repro.core.ports.Transport` and never asks what they are:
  the loopback test cluster and the TCP node build the *same* core.
* :class:`ServiceNode` is the asyncio half: one OS process per site,
  a TCP listener whose links take every complete length-prefixed frame
  of a read inside the read callback, persistent outbound connections
  (dialled with retry and re-dialled when they die; the reliable channel
  covers frames sent while a link is down and flushes them when the dial
  succeeds), the persistent-connection HTTP client API from
  :mod:`repro.service.api`, and a streaming JSONL history sink.  The
  node owns every open link and client connection:
  :meth:`ServiceNode.close` ends them.

Determinism note: protocol state mutates only inside loop callbacks
(``data_received`` of a client connection or a peer link, and timers),
and asyncio runs them one at a time — the cores need no locks, exactly
as in the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from ..core.base import CausalProtocol, ProtocolContext, create_protocol
from ..core.netpolicy import RetransmitPolicy
from ..core.ports import Clock, TimerHandle, Transport
from ..memory.store import SiteStore, WriteId
from ..metrics.collector import MetricsCollector
from ..verify.history import HistoryRecorder
from .api import serve_http
from .bootstrap import ClusterTopology, build_placement
from .channel import ServiceTransport
from .codec import (
    CodecError,
    check_value,
    hello_frame,
    pack_frame,
    unpack_length,
)
from .history import HistorySink
from .runtime import AsyncioScheduler

__all__ = ["NodeCore", "ServiceNode", "run_node"]

#: how long a node waits for a blocked remote read before giving up (ms)
READ_TIMEOUT_MS = 10_000.0
#: pause between outbound dial attempts while a peer is unreachable (s)
DIAL_RETRY_S = 0.25


class NodeCore:
    """One site's protocol instance over injected substrate ports."""

    def __init__(
        self,
        *,
        site: int,
        n_sites: int,
        placement,
        protocol: str,
        clock: Clock,
        transport: Transport,
        collector: MetricsCollector,
        history: Optional[HistoryRecorder] = None,
    ) -> None:
        self.site = site
        self.history = history if history is not None else HistoryRecorder()
        #: the node's one store of counts, shared with its transport
        self.collector = collector
        collector.start_measuring()
        ctx = ProtocolContext(
            site=site,
            n_sites=n_sites,
            placement=placement,
            store=SiteStore(site, placement.vars_at(site)),
            network=transport,
            clock=clock,
            collector=self.collector,
            history=self.history,
        )
        self.ctx = ctx
        self.protocol: CausalProtocol = create_protocol(protocol, ctx)
        self.protocol_name = protocol
        self._op_counter = 0
        self.ops_completed = 0
        self._held = frozenset(placement.vars_at(site))
        #: peer messages dropped for naming a variable not held here
        self.misaddressed = 0

    # ------------------------------------------------------------------
    def put(self, var: int, value: object) -> WriteId:
        """w(x_var)value — refuses with CodecError a value no message can
        carry (``NaN``, a tuple, ...) and sheds with OverloadError past
        the backlog cap, both before any protocol state moves."""
        check_value(value)
        self.protocol.admit_put()
        self._op_counter += 1
        wid = self.protocol.write(var, value, op_index=self._op_counter)
        self.ops_completed += 1
        return wid

    def get(self, var: int, on_complete) -> None:
        """r(x_var) — ``on_complete(value, write_id, was_remote)`` fires
        immediately for replicated variables, or when the RM arrives for
        remote ones."""
        self._op_counter += 1

        def _done(value, wid, was_remote):
            self.ops_completed += 1
            on_complete(value, wid, was_remote)

        self.protocol.read(var, _done, op_index=self._op_counter)

    def on_message(self, src: int, message: Any) -> None:
        """One message the channel delivered.  An update or a fetch is
        about a variable held here; the wire format cannot know the
        placement, so a peer's message about any other is dropped (and
        counted) here, before a core indexes its store with it."""
        if message.var not in self._held and not self.protocol._is_rm(message):
            self.misaddressed += 1
            return
        self.protocol.on_message(src, message)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "site": self.site,
            "protocol": self.protocol_name,
            "n_sites": self.ctx.n_sites,
            "clock_ms": self.ctx.clock.now,
            "ops_completed": self.ops_completed,
            "pending_protocol": self.protocol.pending_count,
            "history_events": len(self.history),
            "misaddressed": self.misaddressed,
        }


class _InboundLink(asyncio.Protocol):
    """An accepted peer link: every complete ``[4-byte length][payload]``
    frame of a read is taken inside the read callback."""

    def __init__(self, node: "ServiceNode") -> None:
        self._node = node
        self._buffer = bytearray()
        self._greeted = False  # the wire format is the link's: checked once

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._node._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._node._inbound.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        channel = self._node.transport
        pos, end = 0, len(buffer)
        try:
            while end - pos >= 4:
                stop = pos + 4 + unpack_length(buffer[pos:pos + 4])
                if stop > end:
                    break
                frame = buffer[pos + 4:stop]
                pos = stop
                if self._greeted:
                    channel.on_frame(frame)
                elif channel.accept_link(frame):
                    self._greeted = True
                else:
                    self._transport.close()
                    return
        except CodecError:
            # a length past the cap or a payload without a frame head:
            # the peer is not speaking this format, so the link goes
            channel.malformed_frames += 1
            self._transport.close()
            return
        del buffer[:pos]


class _OutboundLink(asyncio.Protocol):
    """A dialled peer link.  Frames only go out on it (the peer answers
    on the link *it* dialled), so all it does is report its own death."""

    def __init__(self, node: "ServiceNode", dst: int) -> None:
        self._node = node
        self._dst = dst

    def connection_made(self, transport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # closed or reset by the peer: re-dial, and the channel flushes
        # what is unacked when the new link stands (``on_link_up``)
        node, dst = self._node, self._dst
        if node._writers.get(dst) is self._transport:
            del node._writers[dst]
            node._ensure_dial(dst, retry=True)


class ServiceNode:
    """The asyncio TCP process hosting one :class:`NodeCore`."""

    def __init__(self, topology: ClusterTopology, site: int) -> None:
        self.topology = topology
        self.site = site
        self.spec = topology.node(site)
        self.scheduler = AsyncioScheduler(asyncio.get_event_loop())
        policy = (
            RetransmitPolicy(**topology.retransmit)
            if topology.retransmit
            else RetransmitPolicy()
        )
        collector = MetricsCollector()
        self.transport = ServiceTransport(
            site,
            topology.n_sites,
            self.scheduler,
            self._send_frame,
            self._deliver,
            collector=collector,
            policy=policy,
        )
        self.core = NodeCore(
            site=site,
            n_sites=topology.n_sites,
            placement=build_placement(topology),
            protocol=topology.protocol,
            clock=self.scheduler,
            transport=self.transport,
            collector=collector,
        )
        self._sink: Optional[HistorySink] = None
        path = topology.history_path(site)
        if path is not None:
            self._sink = HistorySink(self.core.history, path)
        #: the live link dialled to each peer, the dial task of each peer
        #: without one, and every accepted link
        self._writers: dict[int, asyncio.Transport] = {}
        self._dials: dict[int, asyncio.Task] = {}
        self._inbound: set[asyncio.Transport] = set()
        self._servers: list[asyncio.base_events.Server] = []
        #: the client API's lifetime counters, and every open client
        #: connection (``api._HttpConnection`` keeps them current;
        #: ``close`` ends what is still open)
        self.http_requests = 0
        self.http_connections = 0
        self.http_clients: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # raw frame egress/ingress (the seam the reliable channel rides on)
    # ------------------------------------------------------------------
    def _send_frame(self, dst: int, frame: bytes) -> None:
        link = self._writers.get(dst)
        if link is None:
            # no link: drop and dial; the channel timer re-covers it
            self._ensure_dial(dst)
        elif not link.is_closing():
            link.write(pack_frame(frame))

    def _deliver(self, src: int, message: object) -> None:
        self.core.on_message(src, message)
        self._flush_history()

    def _flush_history(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    # ------------------------------------------------------------------
    # outbound links
    # ------------------------------------------------------------------
    def _ensure_dial(self, dst: int, retry: bool = False) -> None:
        if dst in self._dials or dst in self._writers or self._closed:
            return
        self._dials[dst] = asyncio.get_running_loop().create_task(
            self._dial(dst, retry))

    async def _dial(self, dst: int, retry: bool) -> None:
        """Dial ``dst`` until a link stands; every attempt but the first
        of a fresh dial waits ``DIAL_RETRY_S``."""
        spec = self.topology.node(dst)
        loop = asyncio.get_running_loop()
        try:
            while not self._closed:
                if retry:
                    await asyncio.sleep(DIAL_RETRY_S)
                retry = True
                try:
                    link, _ = await loop.create_connection(
                        lambda: _OutboundLink(self, dst),
                        spec.host, spec.peer_port,
                    )
                except OSError:
                    continue
                if link.is_closing():
                    continue  # lost before this task saw it
                link.write(pack_frame(hello_frame(self.site)))
                self._writers[dst] = link
                self.transport.on_link_up(dst)
                return
        finally:
            del self._dials[dst]

    # ------------------------------------------------------------------
    # application surface used by the HTTP API
    # ------------------------------------------------------------------
    def put(self, var: int, value: object) -> WriteId:
        wid = self.core.put(var, value)
        self._flush_history()
        return wid

    def read(self, var: int, on_done) -> None:
        """r(x_var) by callback, under :meth:`get` and the HTTP GET alike:
        ``on_done((value, write_id, was_remote))`` runs inside this call
        for a variable replicated here, from the RM's ingress for a
        remote one -- or ``on_done(None)`` if that RM has not come after
        ``READ_TIMEOUT_MS`` (armed only for a read still open on return)."""
        timer: Optional[TimerHandle] = None

        def finish(result) -> None:
            nonlocal on_done
            if on_done is not None:
                done, on_done = on_done, None
                if timer is not None:
                    timer.cancel()
                self._flush_history()
                done(result)

        self.core.get(var, lambda *result: finish(result))
        if on_done is not None:
            timer = self.scheduler.schedule(
                READ_TIMEOUT_MS, lambda: finish(None))

    async def get(self, var: int) -> tuple[object, Optional[WriteId], bool]:
        """:meth:`read` for library callers; ``asyncio.TimeoutError``
        after ``READ_TIMEOUT_MS``."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def on_done(result) -> None:
            if not future.done():  # the awaiting task may have been cancelled
                future.set_result(result)

        self.read(var, on_done)
        # a local read is done already: awaiting it does not suspend
        result = await future
        if result is None:
            raise asyncio.TimeoutError
        return result

    def status(self) -> dict:
        out = self.core.status()
        out["pending_channel"] = self.transport.unacked_count()
        out["peer_links"] = sorted(self._writers)
        out["malformed_frames"] = self.transport.malformed_frames
        out["links_refused"] = self.transport.links_refused
        out["http_requests"] = self.http_requests
        out["http_connections"] = self.http_connections
        out["http_open"] = len(self.http_clients)
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._servers.append(
            await asyncio.get_running_loop().create_server(
                lambda: _InboundLink(self), self.spec.host, self.spec.peer_port
            )
        )
        self._servers.append(
            await serve_http(self, self.spec.host, self.spec.http_port)
        )
        for dst in range(self.topology.n_sites):
            if dst != self.site:
                self._ensure_dial(dst)

    async def run_forever(self) -> None:
        await self.start()
        try:
            await asyncio.Event().wait()  # cancelled from outside
        finally:
            await self.close()

    async def close(self) -> None:
        self._closed = True
        for server in self._servers:
            server.close()
        for task in self._dials.values():
            task.cancel()
        for link in [*self._writers.values(), *self._inbound]:
            link.close()
        for client in list(self.http_clients):
            client.close()
        self.transport.close()
        if self._sink is not None:
            self._sink.close()


def run_node(topology: ClusterTopology, site: int) -> None:
    """Blocking entry point for one node process (``repro _node``)."""

    async def _main() -> None:
        node = ServiceNode(topology, site)
        await node.run_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
