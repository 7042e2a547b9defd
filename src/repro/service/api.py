"""Persistent-connection HTTP/1.1 JSON API for a live node, served from
the socket's read callback.

Hand-rolled on purpose: the container ships no HTTP framework and the
surface is four routes, so a sans-I/O request parser (:func:`parse`)
under an ``asyncio.Protocol`` keeps the node dependency-free.

Routes::

    GET  /status        node + transport counters (JSON)
    GET  /history       the node's event history (JSONL text)
    GET  /kv/<var>      r(x_var); blocks until the causal read completes
    PUT  /kv/<var>      w(x_var)value; body {"value": <json>}

Examples::

    curl http://127.0.0.1:7503/status
    curl -X PUT -d '{"value": 41}' http://127.0.0.1:7503/kv/0
    curl http://127.0.0.1:7504/kv/0 http://127.0.0.1:7504/kv/1   # one connection

PUT returns 400 for a value no peer message can carry (``NaN``,
``Infinity``, ``1e999``, a lone surrogate) before the write moves any
protocol state, 503 with ``{"error": "overloaded"}`` when admission
control sheds the write (the paper's overload regime), and GET returns 504
if a remote read's RM never arrives within the node's read timeout.

**No task, no future.**  Every request that is whole in a read is parsed,
routed and answered with ``transport.write`` inside ``data_received``; a
remote GET is answered from the RM's own callback chain, which then goes
on with what was pipelined behind it.

**Connections persist.**  One connection is served until the
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

**No idle reaper.**  A silent client keeps its socket: a timer per
request or connection would put back on the hot path part of what
persistence took off it (the read timeout is armed only for a remote
GET).  ``ServiceNode.close()`` ends every open connection, and a peer
that vanished without a FIN is the kernel's business (``SO_KEEPALIVE``).
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..core.netpolicy import OverloadError
from ..verify.history import encode_events
from .codec import CodecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import ServiceNode

__all__ = ["serve_http"]

#: refuse request bodies larger than this (1 MiB)
MAX_BODY_BYTES = 1024 * 1024
#: refuse a request line or header line longer than this
MAX_LINE_BYTES = 64 * 1024
#: refuse a request with more header lines than this
MAX_HEADER_LINES = 100
#: every JSON reply's encoder, built once (json.dumps builds one per call)
_ENCODE = json.JSONEncoder(sort_keys=True).encode

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
    return _Reply(status, (_ENCODE(payload) + "\n").encode("utf-8"))


def _wid_dict(write_id) -> Optional[dict]:
    if write_id is None:
        return None
    return {"site": write_id.site, "clock": write_id.clock}


#: where the scan of a head resumes: (start of the first line whose end
#: has not arrived, offset its end is looked for from, lines before it)
_START = (0, 0, 0)


def parse(buffer, scan_from=_START):
    """One request off the front of ``buffer``, without I/O.

    Returns ``(request, consumed)``; or ``(None, scan_from)`` while the
    request is not all there -- pass it back in with the longer buffer,
    so that no byte of a head is scanned twice however it dribbles in;
    or raises :class:`_Refusal` when the framing is in doubt (the caller
    must close: the stream is out of step).
    """
    pos, seen, lines = scan_from
    while True:
        end = buffer.find(b"\n", seen)
        if (len(buffer) if end < 0 else end) - pos > MAX_LINE_BYTES:
            raise _Refusal(431, f"line longer than {MAX_LINE_BYTES} bytes")
        if end < 0:
            return None, (pos, len(buffer), lines)
        if buffer[pos:end] in (b"", b"\r"):
            break
        lines += 1
        if lines > MAX_HEADER_LINES + 1:  # + the request line
            raise _Refusal(431, f"more than {MAX_HEADER_LINES} header lines")
        pos = seen = end + 1
    head = str(buffer[:pos], "latin-1").split("\n")  # ends with one ""
    parts = head[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _Refusal(400, "request line is not 'METHOD PATH HTTP/1.x'")
    content_length: Optional[int] = None
    tokens: list[str] = []
    for line in head[1:-1]:
        name, _, value = line.partition(":")
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
    consumed = end + 1 + content_length
    if len(buffer) < consumed:
        return None, (pos, pos, lines)  # finds the empty line again
    body = bytes(buffer[end + 1:consumed])
    return _Request(parts[0].upper(), parts[1], body, connection), consumed


class _HttpConnection(asyncio.Protocol):
    """One client connection, served inside the transport's callbacks.

    Requests are answered one at a time in arrival order.  A remote GET
    parks the connection until its RM comes, a client that does not read
    its replies (``pause_writing``) stalls it the same way, and a stalled
    connection with over ``MAX_BODY_BYTES`` of backlog stops reading.
    """

    def __init__(self, node: "ServiceNode") -> None:
        self._node = node
        self._buffer = bytearray()
        self._scan = _START
        self._parked = False    # a remote GET is waiting for its RM
        self._paused = False    # the client is not reading its replies
        self._eof = False       # the client has sent all it will
        self._finished = False  # refused or closed: nothing more is parsed
        self._discarded = 0     # bytes thrown away since the refusal

    def connection_made(self, transport) -> None:
        self._transport = transport
        transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1
        )
        self._node.http_connections += 1
        self._node.http_clients.add(self)

    def data_received(self, data: bytes) -> None:
        if self._finished:
            self._discarded += len(data)
            if self._discarded >= MAX_BODY_BYTES:
                self.close()
            return
        self._buffer += data
        self._serve()
        if len(self._buffer) > MAX_BODY_BYTES and (
                self._parked or self._paused):
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        # kept while replies are owed: to the parked GET, and to what is
        # whole in the backlog behind it
        if self._finished or not (self._parked or self._paused):
            self.close()  # between requests, inside one, or refused
        return not self._finished

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._resume()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()

    def close(self) -> None:
        """Nothing more is parsed or answered; what is written already
        is flushed, then the socket goes."""
        self._finished = True
        self._node.http_clients.discard(self)
        self._transport.close()

    def _serve(self) -> None:
        """Answer, in arrival order, every request that is whole in the
        buffer, until one has to wait for its RM."""
        node = self._node
        while not (self._parked or self._paused or self._finished):
            try:
                request, at = parse(self._buffer, self._scan)
            except _Refusal as refusal:
                self._refuse(refusal)
                return
            if request is None:
                self._scan = at
                if self._eof:
                    self.close()  # EOF in mid-request: a silent close
                return
            del self._buffer[:at]
            self._scan = _START
            node.http_requests += 1
            try:
                reply = self._route(request)
            except Exception as exc:  # surface, don't kill the node
                reply = _json_reply(500, {"error": str(exc)})
            if reply is not None:
                self._answer(reply, request.connection)

    def _resume(self) -> None:
        """A stall is over: read on, and serve what queued up behind it."""
        self._transport.resume_reading()
        self._serve()

    def _answer(self, reply: _Reply, connection: str) -> None:
        if self._finished:
            return  # node.close(), or the client's reset, came first
        self._parked = False
        self._transport.write(_frame(reply, connection))
        if connection == "close":
            self.close()

    def _refuse(self, refusal: _Refusal) -> None:
        """Answer, half-close, and discard what the peer sends from here.

        Closing a socket that holds unread bytes makes the kernel send an
        RST, which can overtake the answer in the client's buffers; so the
        FIN goes first and ``data_received`` throws the rest of the refused
        request (at most ``MAX_BODY_BYTES`` of it) away unparsed.
        """
        self._finished = True
        self._buffer.clear()
        reply = _json_reply(refusal.status, {"error": str(refusal)})
        self._transport.write(_frame(reply, "close"))
        self._transport.write_eof()
        if self._eof:
            self.close()

    def _get(self, var: int, connection: str) -> None:
        """r(x_var): answered before this returns when the variable is
        replicated here, from the RM's ingress otherwise."""
        inline = True

        def on_done(result) -> None:
            if result is None:
                reply = _json_reply(504, {"error": "read timed out",
                                          "var": var})
            else:
                value, write_id, remote = result
                reply = _json_reply(200, {
                    "var": var, "value": value,
                    "write_id": _wid_dict(write_id), "remote": remote,
                })
            self._answer(reply, connection)
            if not inline:
                self._resume()

        self._parked = True
        self._node.read(var, on_done)
        inline = False

    def _route(self, request: _Request) -> Optional[_Reply]:
        """The reply, or None for a GET (:meth:`_get` answers it)."""
        node, method, path = self._node, request.method, request.path
        if path in ("/status", "/history"):
            if method != "GET":
                return _json_reply(405, {"error": "method not allowed"})
            if path == "/status":
                return _json_reply(200, node.status())
            return _Reply(
                200,
                encode_events(node.core.history.events).encode("utf-8"),
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
                self._get(var, request.connection)
                return None

            if method == "PUT":
                body = request.body
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
                except CodecError as exc:  # NaN, 1e999, a lone surrogate
                    return _json_reply(400, {"error": str(exc)})
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


async def serve_http(
    node: "ServiceNode", host: str, port: int
) -> asyncio.base_events.Server:
    """Start the API listener; returns the asyncio server handle.  An
    accepted connection sits in ``node.http_clients`` until it closes:
    that is how ``ServiceNode.close()`` reaches an idle or parked one."""
    return await asyncio.get_running_loop().create_server(
        lambda: _HttpConnection(node), host, port
    )
