"""Persistent-connection HTTP/1.1 JSON API for a live node, over asyncio streams.

Hand-rolled on purpose: the container ships no HTTP framework and the
surface is four routes, so a small request parser over
``asyncio.start_server`` keeps the node dependency-free.

Routes::

    GET  /status        node + transport counters (JSON)
    GET  /history       the node's event history (JSONL text)
    GET  /kv/<var>      r(x_var); blocks until the causal read completes
    PUT  /kv/<var>      w(x_var)value; body {"value": <json>}

Examples::

    curl http://127.0.0.1:7503/status
    curl -X PUT -d '{"value": 41}' http://127.0.0.1:7503/kv/0
    curl http://127.0.0.1:7504/kv/0 http://127.0.0.1:7504/kv/1   # one connection

PUT returns 503 with ``{"error": "overloaded"}`` when admission control
sheds the write (the paper's overload regime, PR 8), and GET returns 504
if a remote read's RM never arrives within the node's read timeout.

**Connections persist.**  One connection is served in a loop until the
peer closes it, a request says ``Connection: close``, a request speaks
``HTTP/1.0`` without ``Connection: keep-alive``, or the parser has to
refuse what it was sent.  Every response is framed by ``Content-Length``
and carries ``Connection: close`` exactly when the server closes after
it.  A handler exception answers 500 and keeps the connection: the body
had been read in full, so the stream is still in step.

**Order.**  Requests of one connection are answered strictly in arrival
order, pipelined ones included.  One connection *is* one sequential
application process (paper Section II), so a request queued behind a
remote GET that is waiting for its RM is the paper's semantics, not a
head-of-line defect; clients that want concurrency open more
connections.

**Refusals.**  On a kept connection a mis-framed body would be parsed as
the next request, so anything that leaves the framing in doubt is
answered with a typed one-line ``{"error": ...}`` and the connection
closes; nothing after a refused request is parsed::

    400  request line without three parts, or not HTTP/1.x;
         Content-Length not a non-negative integer, or two that disagree
    413  declared body above MAX_BODY_BYTES (the body is never buffered)
    431  a line above MAX_LINE_BYTES, or more than MAX_HEADER_LINES headers
    501  any Transfer-Encoding

EOF in the middle of a request is a silent close.

**No idle reaper.**  A silent client keeps its socket, as it always did
(``readline`` never had a timeout); a timer per request or connection
would put back on the hot path part of what persistence took off it.
``ServiceNode.close()`` ends every open connection, and a peer that
vanished without a FIN is the kernel's business (``SO_KEEPALIVE`` is set
on accepted sockets).
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..core.netpolicy import OverloadError
from .history import dump_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import ServiceNode

__all__ = ["serve_http"]

#: refuse request bodies larger than this (1 MiB)
MAX_BODY_BYTES = 1024 * 1024
#: refuse a request line or header line longer than this (the
#: ``StreamReader`` limit of the listener)
MAX_LINE_BYTES = 64 * 1024
#: refuse a request with more header lines than this
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Content Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Reply(NamedTuple):
    status: int
    body: bytes
    content_type: str = "application/json"


class _Request(NamedTuple):
    method: str
    path: str
    body: bytes
    #: the response's ``Connection`` header: ``"close"``, ``"keep-alive"``
    #: (an HTTP/1.0 peer has to be told) or ``""`` (HTTP/1.1's default)
    connection: str


class _Refusal(Exception):
    """A request the parser cannot frame: answered ``status``, then closed."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status


def _frame(reply: _Reply, connection: str) -> bytes:
    head = (
        f"HTTP/1.1 {reply.status} {_REASONS.get(reply.status, 'Unknown')}\r\n"
        f"Content-Type: {reply.content_type}\r\n"
        f"Content-Length: {len(reply.body)}\r\n"
    )
    if connection:
        head += f"Connection: {connection}\r\n"
    return head.encode("ascii") + b"\r\n" + reply.body


def _json_reply(status: int, payload: dict) -> _Reply:
    return _Reply(
        status, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    )


def _wid_dict(write_id) -> Optional[dict]:
    if write_id is None:
        return None
    return {"site": write_id.site, "clock": write_id.clock}


async def _read_head(reader: asyncio.StreamReader) -> Optional[list[bytes]]:
    """The request line and the header lines, or None on EOF."""
    lines: list[bytes] = []
    while len(lines) <= MAX_HEADER_LINES + 1:  # + the request line
        try:
            line = await reader.readline()
        except ValueError:  # the StreamReader's limit overrun
            raise _Refusal(
                431, f"line longer than {MAX_LINE_BYTES} bytes"
            ) from None
        if not line.endswith(b"\n"):
            return None  # EOF, between requests or in the middle of one
        if line in (b"\r\n", b"\n"):
            return lines
        lines.append(line)
    raise _Refusal(431, f"more than {MAX_HEADER_LINES} header lines")


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one request; None on EOF, :class:`_Refusal` when the framing
    is in doubt (the caller must close: the stream is out of step)."""
    head = await _read_head(reader)
    if head is None:
        return None
    parts = head[0].decode("latin-1").split() if head else []
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _Refusal(400, "request line is not 'METHOD PATH HTTP/1.x'")
    content_length: Optional[int] = None
    tokens: list[str] = []
    for line in head[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            # int() would also take "+5", "5_0" and non-ASCII digits, and
            # raises on thousands of them
            if not (value.isascii() and value.isdigit() and len(value) < 20):
                raise _Refusal(400, f"bad Content-Length {value[:32]!r}")
            if content_length not in (None, int(value)):
                raise _Refusal(400, "Content-Length headers disagree")
            content_length = int(value)
        elif name == "transfer-encoding":
            raise _Refusal(501, "Transfer-Encoding is not supported")
        elif name == "connection":
            tokens += [t.strip() for t in value.lower().split(",")]
    if "close" in tokens:
        connection = "close"
    elif parts[2] == "HTTP/1.0":
        connection = "keep-alive" if "keep-alive" in tokens else "close"
    else:
        connection = ""
    if content_length is None:
        content_length = 0
    elif content_length > MAX_BODY_BYTES:
        raise _Refusal(
            413, f"body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    return _Request(parts[0].upper(), parts[1], body, connection)


async def _refuse(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    refusal: _Refusal,
) -> None:
    """Answer, half-close, and discard what the peer had already sent.

    Closing a socket that holds unread bytes makes the kernel send an
    RST, which can overtake the answer in the client's buffers; so the
    FIN goes first and the rest of the refused request (at most
    ``MAX_BODY_BYTES`` of it, a chunk at a time) is thrown away unparsed.
    """
    writer.write(
        _frame(_json_reply(refusal.status, {"error": str(refusal)}), "close")
    )
    writer.write_eof()
    discarded = 0
    while discarded < MAX_BODY_BYTES:
        chunk = await reader.read(MAX_LINE_BYTES)
        if not chunk:
            break
        discarded += len(chunk)


async def _handle(node: "ServiceNode", method: str, path: str,
                  body: bytes) -> _Reply:
    if path == "/status":
        if method != "GET":
            return _json_reply(405, {"error": "method not allowed"})
        return _json_reply(200, node.status())

    if path == "/history":
        if method != "GET":
            return _json_reply(405, {"error": "method not allowed"})
        return _Reply(
            200,
            dump_events(node.core.history.events).encode("utf-8"),
            "application/x-ndjson",
        )

    if path.startswith("/kv/"):
        try:
            var = int(path[len("/kv/"):])
        except ValueError:
            return _json_reply(400, {"error": f"bad variable in {path!r}"})
        if not 0 <= var < node.topology.n_vars:
            return _json_reply(404, {"error": f"no variable {var}"})

        if method == "GET":
            try:
                value, write_id, remote = await node.get(var)
            except asyncio.TimeoutError:
                return _json_reply(
                    504, {"error": "read timed out", "var": var}
                )
            return _json_reply(200, {
                "var": var, "value": value,
                "write_id": _wid_dict(write_id), "remote": remote,
            })

        if method == "PUT":
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                return _json_reply(400, {"error": "body is not JSON"})
            if not isinstance(payload, dict) or "value" not in payload:
                return _json_reply(
                    400, {"error": 'body must be {"value": <json>}'}
                )
            try:
                wid = node.put(var, payload["value"])
            except OverloadError as exc:
                return _json_reply(503, {
                    "error": "overloaded", "var": var,
                    "backlog": exc.backlog, "threshold": exc.threshold,
                })
            return _json_reply(200, {
                "var": var, "value": payload["value"],
                "write_id": _wid_dict(wid),
            })

        return _json_reply(405, {"error": "method not allowed"})

    return _json_reply(404, {"error": f"no route {path!r}"})


async def _serve_connection(
    node: "ServiceNode", reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Answer one connection's requests, in order, until it has to close."""
    try:
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1
        )
        while True:
            try:
                request = await _read_request(reader)
            except _Refusal as refusal:
                await _refuse(reader, writer, refusal)
                return
            if request is None:
                return
            node.http_requests += 1
            try:
                reply = await _handle(
                    node, request.method, request.path, request.body
                )
            except Exception as exc:  # surface, don't kill the node
                reply = _json_reply(500, {"error": str(exc)})
            writer.write(_frame(reply, request.connection))
            await writer.drain()
            if request.connection == "close":
                return
    except (OSError, asyncio.IncompleteReadError):
        pass  # the peer went away in mid-request or mid-response


async def serve_http(
    node: "ServiceNode", host: str, port: int
) -> asyncio.base_events.Server:
    """Start the API listener; returns the asyncio server handle.

    Every accepted connection is served by a task of its own, held in
    ``node.http_clients`` from the accept until it ends; that is how
    ``ServiceNode.close()`` reaches a handler parked in ``readline`` or
    behind a remote read.
    """
    loop = asyncio.get_running_loop()

    def _accept(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        node.http_connections += 1
        task = loop.create_task(_serve_connection(node, reader, writer))
        node.http_clients.add(task)
        task.add_done_callback(node.http_clients.discard)
        # not a ``finally`` in the task: one cancelled before its first
        # step never enters its body
        task.add_done_callback(lambda _task: writer.close())

    return await asyncio.start_server(
        _accept, host, port, limit=MAX_LINE_BYTES
    )
