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
  a TCP listener for length-prefixed peer frames, persistent outbound
  connections (dialled with retry; the reliable channel covers frames
  sent while a link is down and flushes them when the dial succeeds),
  the persistent-connection HTTP client API from
  :mod:`repro.service.api` (the node owns the open client connections,
  so :meth:`ServiceNode.close` ends them), and a streaming JSONL history
  sink.

Determinism note: protocol state mutates only inside loop callbacks
(HTTP handlers and frame ingress), and asyncio runs them one at a time —
the cores need no locks, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from ..core.base import CausalProtocol, ProtocolContext, create_protocol
from ..core.netpolicy import RetransmitPolicy
from ..core.ports import Clock, Transport
from ..memory.store import SiteStore, WriteId
from ..metrics.collector import MetricsCollector
from ..metrics.sizing import DEFAULT_SIZE_MODEL, SizeModel
from ..verify.history import HistoryRecorder
from .api import serve_http
from .bootstrap import ClusterTopology, build_placement
from .channel import ServiceTransport
from .codec import CodecError, hello_frame, loads, pack_frame, unpack_length
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
        history: Optional[HistoryRecorder] = None,
        size_model: SizeModel = DEFAULT_SIZE_MODEL,
    ) -> None:
        self.site = site
        self.history = history if history is not None else HistoryRecorder()
        self.collector = MetricsCollector()
        self.collector.start_measuring()
        ctx = ProtocolContext(
            site=site,
            n_sites=n_sites,
            placement=placement,
            store=SiteStore(site, placement.vars_at(site)),
            network=transport,
            clock=clock,
            collector=self.collector,
            size_model=size_model,
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
        """w(x_var)value — sheds with OverloadError past the backlog cap."""
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
        self.transport = ServiceTransport(
            site,
            topology.n_sites,
            self.scheduler,
            self._send_frame,
            self._deliver,
            policy=policy,
        )
        self.core = NodeCore(
            site=site,
            n_sites=topology.n_sites,
            placement=build_placement(topology),
            protocol=topology.protocol,
            clock=self.scheduler,
            transport=self.transport,
        )
        self._sink: Optional[HistorySink] = None
        path = topology.history_path(site)
        if path is not None:
            self._sink = HistorySink(self.core.history, path)
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._dialing: set[int] = set()
        self._servers: list[asyncio.base_events.Server] = []
        self._tasks: set[asyncio.Task] = set()
        #: the client API's lifetime counters, and the handler task of
        #: every open client connection (``api.serve_http`` keeps them
        #: current; ``close`` cancels what is still open)
        self.http_requests = 0
        self.http_connections = 0
        self.http_clients: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # raw frame egress/ingress (the seam the reliable channel rides on)
    # ------------------------------------------------------------------
    def _send_frame(self, dst: int, frame: bytes) -> None:
        writer = self._writers.get(dst)
        if writer is None or writer.is_closing():
            # no link: drop and (re)dial; the channel timer re-covers it
            self._ensure_dial(dst)
            return
        try:
            writer.write(pack_frame(frame))
        except ConnectionError:
            self._drop_writer(dst)

    def _deliver(self, src: int, message: object) -> None:
        self.core.on_message(src, message)
        self._flush_history()

    def _flush_history(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    # ------------------------------------------------------------------
    # outbound links
    # ------------------------------------------------------------------
    def _ensure_dial(self, dst: int) -> None:
        if dst in self._dialing or dst in self._writers or self._closed:
            return
        self._dialing.add(dst)
        self._spawn(self._dial(dst))

    async def _dial(self, dst: int) -> None:
        spec = self.topology.node(dst)
        try:
            while not self._closed:
                try:
                    _, writer = await asyncio.open_connection(
                        spec.host, spec.peer_port
                    )
                except OSError:
                    await asyncio.sleep(DIAL_RETRY_S)
                    continue
                writer.write(pack_frame(hello_frame(self.site)))
                self._writers[dst] = writer
                self.transport.on_link_up(dst)
                return
        finally:
            self._dialing.discard(dst)

    def _drop_writer(self, dst: int) -> None:
        writer = self._writers.pop(dst, None)
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    # inbound links
    # ------------------------------------------------------------------
    async def _handle_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        greeted = False  # the wire format is the link's: checked once
        try:
            while True:
                prefix = await reader.readexactly(4)
                payload = await reader.readexactly(unpack_length(prefix))
                frame = loads(payload)
                if greeted:
                    self.transport.on_frame(frame)
                elif self.transport.accept_link(frame):
                    greeted = True
                else:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except CodecError:
            # a length past the cap or bytes that are not JSON: what
            # follows on this stream cannot be framed, so the link goes
            self.transport.malformed_frames += 1
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # application surface used by the HTTP API
    # ------------------------------------------------------------------
    def put(self, var: int, value: object) -> WriteId:
        wid = self.core.put(var, value)
        self._flush_history()
        return wid

    async def get(self, var: int) -> tuple[object, Optional[WriteId], bool]:
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def _done(value, wid, was_remote):
            if not future.done():
                future.set_result((value, wid, was_remote))

        self.core.get(var, _done)
        try:
            if future.done():
                # a locally replicated variable: the read completed inside
                # core.get, so there is nothing to wait (or time out) for
                return future.result()
            return await asyncio.wait_for(future, READ_TIMEOUT_MS / 1000.0)
        finally:
            self._flush_history()

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
    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def start(self) -> None:
        self._servers.append(
            await asyncio.start_server(
                self._handle_peer, self.spec.host, self.spec.peer_port
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
        clients = list(self.http_clients)
        for task in [*self._tasks, *clients]:
            task.cancel()
        for writer in self._writers.values():
            writer.close()
        self.transport.close()
        if clients:
            # a handler parked in readline or behind a remote read would
            # otherwise outlive the node (and, from Python 3.12.1, block
            # Server.wait_closed)
            await asyncio.wait(clients)
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
