"""Live substrate: benchmark-owned cluster lifecycle and closed-loop client.

Every node of the cluster *and* the load generator share one asyncio
loop in this process; traffic crosses real TCP sockets on 127.0.0.1, so
the latencies reported are processor time, not a network's.

The HTTP client is the benchmark's own (it does not import
``repro.service.loadgen``, which later changes stay free to edit): it
reads responses by ``Content-Length`` and keeps a connection whenever the
server leaves it open, so a keep-alive server shows its gain with no
edit here.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from random import Random

from repro.service.bootstrap import ClusterTopology, NodeSpec, build_placement
from repro.service.history import merge_event_lists
from repro.service.node import ServiceNode

from record import Repeat, collector_counts
from reference import SpeedSampler

HOST = "127.0.0.1"
#: the closed loop: one client per core of the 2-core box
CLIENTS = 2
#: how long a repeat may wait for links to come up or for quiescence (s)
WAIT_TIMEOUT_S = 30.0

#: (op index, site, "w" | "r", variable, value)
Op = tuple[int, int, str, int, object]


def op_plan(seed: int, *, n_sites: int, n_vars: int, ops: int,
            owner_writes: bool) -> list[list[Op]]:
    """The seeded op sequence of each client, 50 % PUT / 50 % GET.

    Client ``c`` drives the sites with ``site % CLIENTS == c`` round-robin,
    so each site stays a sequential application process (per-site program
    order is a premise of causal memory).  ``owner_writes`` is the shipped
    ``repro loadgen`` mix (site ``i`` writes only ``v % n == i``); without
    it any site writes any variable, the paper's uniform choice.
    """
    rng = Random(seed)
    plans: list[list[Op]] = [[] for _ in range(CLIENTS)]
    for k in range(ops):
        client = k % CLIENTS
        mine = range(client, n_sites, CLIENTS)
        site = mine[(k // CLIENTS) % len(mine)]
        if rng.random() < 0.5:
            writable = range(site if owner_writes else 0, n_vars,
                             n_sites if owner_writes else 1)
            var = writable[rng.randrange(len(writable))]
            plans[client].append((k, site, "w", var, f"s{site}k{k}"))
        else:
            plans[client].append((k, site, "r", rng.randrange(n_vars), None))
    return plans


def _free_ports(count: int) -> list[int]:
    socks = [socket.socket() for _ in range(count)]
    try:
        for s in socks:
            s.bind((HOST, 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Cluster:
    """``n`` in-process :class:`ServiceNode` s on OS-assigned free ports.

    Waits on the public ``status()`` only.  Must be built inside a running
    loop (the nodes bind to it).
    """

    def __init__(self, *, protocol: str, n_sites: int, n_vars: int,
                 replication_factor: int) -> None:
        ports = _free_ports(2 * n_sites)
        self.topology = ClusterTopology(
            protocol=protocol,
            n_vars=n_vars,
            replication_factor=replication_factor,
            nodes=tuple(
                NodeSpec(site=i, host=HOST, peer_port=ports[i],
                         http_port=ports[n_sites + i])
                for i in range(n_sites)
            ),
        )
        self.nodes = [ServiceNode(self.topology, i) for i in range(n_sites)]

    async def _wait(self, ready, what: str) -> None:
        deadline = time.perf_counter() + WAIT_TIMEOUT_S
        while not ready():
            if time.perf_counter() > deadline:
                raise TimeoutError(f"cluster: {what} not reached in "
                                   f"{WAIT_TIMEOUT_S:.0f} s")
            await asyncio.sleep(0.001)

    async def start(self) -> None:
        """Listeners up and all n(n-1) peer links dialled."""
        for node in self.nodes:
            await node.start()
        want = len(self.nodes) - 1
        await self._wait(
            lambda: all(len(n.status()["peer_links"]) == want
                        for n in self.nodes),
            "all peer links")

    def idle(self) -> bool:
        """No protocol or channel work pending anywhere.

        One synchronous all-zero snapshot is enough: a data frame in
        flight sits in its sender's unacked set until the receiver has
        processed it, reactions included.
        """
        for node in self.nodes:
            status = node.status()
            if status["pending_protocol"] or status["pending_channel"]:
                return False
        return True

    async def wait_idle(self) -> None:
        await self._wait(self.idle, "quiescence")

    async def close(self) -> None:
        for node in self.nodes:
            await node.close()
        # let the peer-link readers see EOF and finish on their own
        # instead of being cancelled when the loop shuts down
        me = asyncio.current_task()
        for _ in range(200):
            if all(t is me for t in asyncio.all_tasks()):
                break
            await asyncio.sleep(0.001)


class HttpClient:
    """Minimal HTTP/1.1 client over asyncio streams, one idle connection
    kept per port while the server leaves it open."""

    def __init__(self) -> None:
        self._idle: dict[int, tuple[asyncio.StreamReader,
                                    asyncio.StreamWriter]] = {}
        self.connections = 0

    async def request(self, port: int, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        conn = self._idle.pop(port, None)
        if conn is None:
            conn = await asyncio.open_connection(HOST, port)
            self.connections += 1
        reader, writer = conn
        reusable = False
        try:
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
            )
            status_line = (await reader.readline()).split()
            if len(status_line) < 2:
                raise ConnectionError("connection closed before a response")
            keep = status_line[0] != b"HTTP/1.0"
            length = 0
            while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                name, value = name.strip().lower(), value.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    keep = value != "close"
            payload = await reader.readexactly(length)
            reusable = keep
        finally:
            if reusable:
                self._idle[port] = conn
            else:
                writer.close()
        return int(status_line[1]), payload

    def close(self) -> None:
        for _, writer in self._idle.values():
            writer.close()
        self._idle.clear()


async def _drive(plan: list[Op], ports: list[int], http: HttpClient,
                 out: Repeat) -> None:
    for index, site, kind, var, value in plan:
        start = time.perf_counter()
        try:
            if kind == "w":
                status, _ = await http.request(
                    ports[site], "PUT", f"/kv/{var}",
                    json.dumps({"value": value}).encode("utf-8"))
            else:
                status, _ = await http.request(
                    ports[site], "GET", f"/kv/{var}")
        except (OSError, asyncio.IncompleteReadError, ValueError):
            status = 0  # refused, reset or unparsable: a failed op
        end = time.perf_counter()
        out.ops += 1
        out.failed += status != 200
        out.spans.append({"id": index, "kind": "PUT" if kind == "w" else "GET",
                          "site": site, "status": status,
                          "start": start, "end": end})


def _node_counts(cluster: Cluster) -> dict[str, float]:
    """Counters read from the nodes' public collectors and channels."""
    nodes = cluster.nodes
    out = collector_counts([n.core.collector for n in nodes],
                           [n.core.protocol for n in nodes])
    channels = [node.transport.channel(dst)
                for node in nodes for dst in range(len(nodes))
                if dst != node.site]
    out["channel_msgs_sent"] = sum(n.transport.messages_sent for n in nodes)
    out["channel_retransmissions"] = sum(c.retransmissions for c in channels)
    out["channel_duplicate_drops"] = sum(c.duplicate_drops for c in channels)
    out["history_events"] = sum(n.status()["history_events"] for n in nodes)
    return out


async def _repeat(cluster_args: dict, plans: list[list[Op]],
                  sampler: SpeedSampler, errors: list,
                  keep_history: bool) -> Repeat:
    loop = asyncio.get_running_loop()
    # closing in-process nodes can leave callbacks that fail at shutdown;
    # count them (service.node.close_errors) instead of spraying stderr
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    out = Repeat()
    cluster = Cluster(**cluster_args)
    http = [HttpClient() for _ in plans]
    try:
        await cluster.start()
        ports = [spec.http_port for spec in cluster.topology.nodes]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with sampler:
            await asyncio.gather(*(
                _drive(plan, ports, client, out)
                for plan, client in zip(plans, http)
            ))
            t_last = time.perf_counter()
            await cluster.wait_idle()
            t_end = time.perf_counter()
        out.cpu_s = time.process_time() - cpu0
        out.wall_s = t_end - t0
        out.drain_s = t_end - t_last
        out.connections = sum(c.connections for c in http)
        out.counts = _node_counts(cluster)
        if keep_history:
            out.history = merge_event_lists(
                [node.core.history.events for node in cluster.nodes])
            out.placement = build_placement(cluster.topology)
    finally:
        for client in http:
            client.close()
        await cluster.close()
    return out


def run_repeat(cluster_args: dict, plans: list[list[Op]],
               sampler: SpeedSampler, *, keep_history: bool = False) -> Repeat:
    """Boot a fresh cluster, drive the closed loop to quiescence (sampling
    the machine's speed meanwhile), tear down."""
    errors: list = []
    out = asyncio.run(
        _repeat(cluster_args, plans, sampler, errors, keep_history))
    out.close_errors = len(errors)
    return out


def boot_once(cluster_args: dict) -> None:
    """Listeners up, all links dialled, then closed: the live set-up cost."""

    async def _boot() -> None:
        asyncio.get_running_loop().set_exception_handler(lambda *_: None)
        cluster = Cluster(**cluster_args)
        try:
            await cluster.start()
        finally:
            await cluster.close()

    asyncio.run(_boot())
