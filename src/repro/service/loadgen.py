"""Seeded concurrent load generator for a live cluster.

Drives N HTTP clients — one per site, so each site stays a *sequential
application process* (program order is a premise of causal memory,
paper Section II) — concurrently against the cluster's API ports.
The op mix is seeded and single-writer-per-variable: site ``i`` writes
only variables ``v`` with ``v % n == i``.  Causal consistency says
nothing about which of two *concurrent* writes to the same variable
wins, so cross-substrate convergence comparisons are only meaningful
when each variable has one writer; reads may target any variable.

Every request to a site — ops, status polls, the history download —
goes over one kept connection (:class:`HttpSession`), so the driver
pays one TCP handshake per site, not one per operation.

After the op phase the driver polls ``/status`` until every node
reports zero pending protocol work and zero pending channel packets
(quiescence), downloads each node's ``/history``, merges them in site
order, and runs the offline causal checker — the same
:func:`~repro.verify.causal_checker.check_causal_consistency` the
simulator's histories go through.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from random import Random

from ..verify.causal_checker import check_causal_consistency
from ..verify.history import decode_events
from .bootstrap import ClusterTopology, build_placement
from .history import merge_event_lists

__all__ = ["HttpSession", "LoadgenReport", "run_loadgen"]

#: how long to keep polling for quiescence before declaring failure (s)
SETTLE_TIMEOUT_S = 30.0


class _StaleConnection(ConnectionError):
    """A kept connection turned out closed before any response byte."""


class HttpSession:
    """Keep-alive HTTP/1.1 client: one connection per ``(host, port)``.

    Requests carry no ``Connection`` header and responses are read by
    ``Content-Length``, so the connection stays usable for the next
    request unless the server says ``Connection: close``.  Requests to one
    address must come from one sequential caller at a time.

    A kept connection can have been closed by the server since its last
    use.  A GET that finds it so (no response byte received) is sent once
    more over a new connection; a PUT is never re-sent, because a second
    ``w(x)v`` would be a second write in the history.
    """

    def __init__(self) -> None:
        self._idle: dict[
            tuple[str, int], tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        #: connections opened over the session's lifetime
        self.connections = 0

    async def request(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        body: bytes = b"",
    ) -> tuple[int, bytes]:
        """Send one request; returns (status, body)."""
        conn = self._idle.pop((host, port), None)
        if conn is not None:
            try:
                return await self._exchange(host, port, conn, method, path, body)
            except _StaleConnection:
                if method != "GET":
                    raise
        conn = await asyncio.open_connection(host, port)
        self.connections += 1
        return await self._exchange(host, port, conn, method, path, body)

    async def _exchange(
        self, host: str, port: int, conn, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        reader, writer = conn
        reusable = False
        try:
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
            )
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except ConnectionError as exc:
                raise _StaleConnection(str(exc)) from exc
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    raise ConnectionError(
                        "connection closed in mid-response"
                    ) from exc
                raise _StaleConnection(
                    "connection closed before a response"
                ) from exc
            status_line, *headers = head.decode("latin-1").split("\r\n")
            parts = status_line.split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed HTTP response: {status_line[:80]!r}"
                )
            keep = parts[0] != "HTTP/1.0"
            length = 0
            for line in headers:
                name, _, value = line.partition(":")
                name, value = name.strip().lower(), value.strip().lower()
                if name == "content-length" and value.isdigit():
                    length = int(value)
                elif name == "connection":
                    keep = value != "close"
            try:
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ConnectionError(
                    "connection closed in mid-response"
                ) from exc
            reusable = keep
        finally:
            if reusable:
                self._idle[(host, port)] = conn
            else:
                writer.close()
        return int(parts[1]), payload

    def close(self) -> None:
        for _, writer in self._idle.values():
            writer.close()
        self._idle.clear()


@dataclass
class LoadgenReport:
    """What one loadgen run did and whether the history checked out."""

    ops_attempted: int = 0
    writes: int = 0
    reads: int = 0
    shed: int = 0          # 503 overload responses (admission control)
    errors: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    events: int = 0
    quiesced: bool = False
    connections: int = 0   # TCP connections opened, polls and downloads included
    elapsed_s: float = 0.0  # wall time of the op phase

    @property
    def ok(self) -> bool:
        return self.quiesced and not self.errors and not self.violations

    def as_dict(self) -> dict:
        return {
            "ops_attempted": self.ops_attempted,
            "writes": self.writes,
            "reads": self.reads,
            "shed": self.shed,
            "errors": list(self.errors),
            "violations": [str(v) for v in self.violations],
            "events": self.events,
            "quiesced": self.quiesced,
            "connections": self.connections,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
        }


def _site_plan(
    topology: ClusterTopology, site: int, ops: int, seed: int,
    write_fraction: float,
) -> list[tuple[str, int, object]]:
    """The seeded op sequence for one site: (kind, var, value) triples."""
    rng = Random((seed * 1_000_003) ^ (site + 1))
    n, q = topology.n_sites, topology.n_vars
    owned = [v for v in range(q) if v % n == site]
    plan: list[tuple[str, int, object]] = []
    for k in range(ops):
        if owned and rng.random() < write_fraction:
            var = rng.choice(owned)
            plan.append(("w", var, f"s{site}k{k}"))
        else:
            plan.append(("r", rng.randrange(q), None))
    return plan


async def _drive_site(
    http: HttpSession, topology: ClusterTopology, site: int, ops: int,
    seed: int, write_fraction: float, report: LoadgenReport,
) -> None:
    spec = topology.node(site)
    for kind, var, value in _site_plan(
        topology, site, ops, seed, write_fraction
    ):
        report.ops_attempted += 1
        try:
            if kind == "w":
                status, _ = await http.request(
                    spec.host, spec.http_port, "PUT", f"/kv/{var}",
                    json.dumps({"value": value}).encode("utf-8"),
                )
                if status == 503:
                    report.shed += 1
                elif status != 200:
                    report.errors.append(
                        f"site {site}: PUT /kv/{var} -> {status}"
                    )
                else:
                    report.writes += 1
            else:
                status, _ = await http.request(
                    spec.host, spec.http_port, "GET", f"/kv/{var}"
                )
                if status != 200:
                    report.errors.append(
                        f"site {site}: GET /kv/{var} -> {status}"
                    )
                else:
                    report.reads += 1
        except (ConnectionError, OSError) as exc:
            report.errors.append(f"site {site}: {kind} x{var}: {exc}")
            return  # a dead site cannot preserve program order; stop it


async def _await_quiescence(
    http: HttpSession, topology: ClusterTopology
) -> bool:
    """Poll /status until all nodes are drained twice in a row."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + SETTLE_TIMEOUT_S
    stable = 0
    while loop.time() < deadline:
        try:
            idle = True
            for spec in topology.nodes:
                status, body = await http.request(
                    spec.host, spec.http_port, "GET", "/status"
                )
                data = json.loads(body)
                if (status != 200 or data.get("pending_protocol", 1)
                        or data.get("pending_channel", 1)):
                    idle = False
                    break
            stable = stable + 1 if idle else 0
            if stable >= 2:
                return True
        except (ConnectionError, OSError, json.JSONDecodeError):
            stable = 0
        await asyncio.sleep(0.1)
    return False


async def _run(
    topology: ClusterTopology, *, ops: int, seed: int, write_fraction: float,
) -> LoadgenReport:
    report = LoadgenReport()
    loop = asyncio.get_running_loop()
    http = HttpSession()
    try:
        started = loop.time()
        await asyncio.gather(*(
            _drive_site(
                http, topology, site, ops, seed, write_fraction, report
            )
            for site in range(topology.n_sites)
        ))
        report.elapsed_s = loop.time() - started
        report.quiesced = await _await_quiescence(http, topology)
        if not report.quiesced:
            report.errors.append("cluster failed to quiesce")
            return report
        per_site = []
        for spec in topology.nodes:
            status, body = await http.request(
                spec.host, spec.http_port, "GET", "/history"
            )
            if status != 200:
                report.errors.append(
                    f"site {spec.site}: /history -> {status}"
                )
                return report
            per_site.append(decode_events(body.decode("utf-8")))
    finally:
        http.close()
        report.connections = http.connections
    merged = merge_event_lists(per_site)
    report.events = len(merged)
    check = check_causal_consistency(merged, build_placement(topology))
    report.violations = list(check.violations)
    return report


def run_loadgen(
    topology: ClusterTopology,
    *,
    ops: int = 50,
    seed: int = 1,
    write_fraction: float = 0.5,
) -> LoadgenReport:
    """Blocking wrapper: drive the cluster, settle, verify the history."""
    return asyncio.run(
        _run(topology, ops=ops, seed=seed, write_fraction=write_fraction)
    )
