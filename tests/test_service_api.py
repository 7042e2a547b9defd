"""The live node's HTTP front end, in-process.

``ServiceNode`` s on OS-assigned loopback ports inside one event loop,
driven by a raw asyncio-streams client: no subprocess, no sleep longer
than a few milliseconds.  Pins the persistent-connection contract of
``repro.service.api`` -- when a connection is kept, when it closes, that
what cannot be framed is refused with a typed status and never parsed
further -- and the node's ownership of its open client connections.
"""

import asyncio
import json
import socket

import pytest

from repro.loopback import LoopbackCluster
from repro.service import api
from repro.service import node as node_module
from repro.service.bootstrap import (
    ClusterTopology,
    NodeSpec,
    build_placement,
    default_topology,
)
from repro.service.codec import CodecError
from repro.service.history import merge_event_lists
from repro.service.node import ServiceNode
from repro.verify.causal_checker import check_causal_consistency

from .test_service_live import _free_ports

HOST = "127.0.0.1"
#: a test's own timeout: a hang fails here (the scenario is cancelled)
#: instead of stalling the suite
TEST_TIMEOUT_S = 10.0


def _topology(n_sites, replication_factor=1):
    ports = _free_ports(2 * n_sites)
    return ClusterTopology(
        protocol="opt-track",
        n_vars=4,
        replication_factor=replication_factor,
        nodes=tuple(
            NodeSpec(site=i, host=HOST, peer_port=ports[i],
                     http_port=ports[n_sites + i])
            for i in range(n_sites)
        ),
    )


def _vars_of(topology, site):
    """(a variable replicated at ``site``, one that is not)."""
    local = build_placement(topology).vars_at(site)
    remote = [v for v in range(topology.n_vars) if v not in local]
    return min(local), min(remote)


def run(scenario, n_sites=2, start=None, replication_factor=1):
    """Run ``scenario(nodes)`` over started nodes; fails if anything was
    delivered to the loop's exception handler or a task outlived it."""

    async def _main():
        errors = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        watchdog = loop.call_later(
            TEST_TIMEOUT_S, asyncio.current_task().cancel)
        topology = _topology(n_sites, replication_factor)
        nodes = [ServiceNode(topology, i) for i in range(n_sites)]
        try:
            for i in (range(n_sites) if start is None else start):
                await nodes[i].start()
            await scenario(nodes)
        finally:
            watchdog.cancel()
            for node in nodes:
                await node.close()
        await _only_this_task_left()
        assert errors == []

    asyncio.run(_main())


async def _until(condition, what, turns=2000):
    for _ in range(turns):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError(f"not reached: {what}")


async def _only_this_task_left(turns=200):
    me = asyncio.current_task()
    await _until(lambda: all(t is me for t in asyncio.all_tasks()),
                 "every other task to finish", turns)


def _request(method, path, body=b"", *, version="HTTP/1.1", headers=()):
    lines = [f"{method} {path} {version}", f"Host: {HOST}",
             f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body


def _put(var, value, **kw):
    return _request("PUT", f"/kv/{var}",
                    json.dumps({"value": value}).encode(), **kw)


async def _response(reader):
    """(status, headers, body) of one Content-Length-framed response."""
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").rstrip("\r\n").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


async def _connect(node):
    return await asyncio.open_connection(HOST, node.spec.http_port)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_twenty_requests_share_one_connection():
    async def scenario(nodes):
        node = nodes[0]
        var, _ = _vars_of(node.topology, 0)
        reader, writer = await _connect(node)
        for k in range(10):
            writer.write(_put(var, k))
            status, headers, body = await _response(reader)
            assert status == 200 and "connection" not in headers
            write_id = json.loads(body)["write_id"]
            writer.write(_request("GET", f"/kv/{var}"))
            status, headers, body = await _response(reader)
            assert status == 200 and "connection" not in headers
            reply = json.loads(body)
            assert reply["value"] == k and reply["write_id"] == write_id
        status = node.status()
        assert status["http_connections"] == 1
        assert status["http_requests"] == 20
        assert status["http_open"] == 1
        writer.close()
        await _until(lambda: node.status()["http_open"] == 0,
                     "the handler to see the client's EOF")

    run(scenario)


def test_json_replies_are_the_bytes_json_dumps_gives(monkeypatch):
    # the API encodes with one module-level encoder; its replies must stay
    # what json.dumps(payload, sort_keys=True) produced
    replies = []
    json_reply = api._json_reply

    def recording(status, payload):
        reply = json_reply(status, payload)
        replies.append((payload, reply.body))
        return reply

    monkeypatch.setattr(api, "_json_reply", recording)

    async def scenario(nodes):
        var, _ = _vars_of(nodes[0].topology, 0)
        reader, writer = await _connect(nodes[0])
        for request in (_put(var, {"b": [1.5, None], "a": "é"}),
                        _request("GET", f"/kv/{var}"),
                        _request("GET", "/status"),
                        _request("GET", "/kv/nine")):
            writer.write(request)
            await _response(reader)
        writer.close()

    run(scenario)
    assert len(replies) == 4
    for payload, body in replies:
        assert body == (json.dumps(payload, sort_keys=True) + "\n").encode()


def test_pipelined_requests_are_answered_in_order():
    async def scenario(nodes):
        var, _ = _vars_of(nodes[0].topology, 0)
        reader, writer = await _connect(nodes[0])
        writer.write(_put(var, "first") + _request("GET", f"/kv/{var}")
                     + _request("GET", "/status"))
        put = await _response(reader)
        get = await _response(reader)
        status = await _response(reader)
        assert (put[0], get[0], status[0]) == (200, 200, 200)
        assert json.loads(get[2])["write_id"] == json.loads(put[2])["write_id"]
        assert json.loads(status[2])["http_requests"] == 3
        writer.close()

    run(scenario)


def test_connection_close_is_honoured_and_echoed():
    async def scenario(nodes):
        reader, writer = await _connect(nodes[0])
        writer.write(_request("GET", "/status",
                              headers=["Connection: close"]))
        status, headers, _ = await _response(reader)
        assert status == 200 and headers["connection"] == "close"
        assert await reader.read() == b""
        writer.close()

    run(scenario)


def test_http_1_0_closes_unless_it_asks_for_keep_alive():
    async def scenario(nodes):
        reader, writer = await _connect(nodes[0])
        writer.write(_request("GET", "/status", version="HTTP/1.0"))
        status, headers, _ = await _response(reader)
        assert status == 200 and headers["connection"] == "close"
        assert await reader.read() == b""
        writer.close()

        reader, writer = await _connect(nodes[0])
        for _ in range(2):
            writer.write(_request("GET", "/status", version="HTTP/1.0",
                                  headers=["Connection: Keep-Alive"]))
            status, headers, _ = await _response(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
        writer.close()

    run(scenario)


# ----------------------------------------------------------------------
# refusals: typed status, Connection: close, EOF -- and the node survives
# ----------------------------------------------------------------------
_PAST_THE_LINE_LIMIT = b"x" * (api.MAX_LINE_BYTES + 1024)

REFUSALS = {
    "two-part request line": (400, b"GET /status\r\n\r\n"),
    "not HTTP/1.x": (400, b"GET /status HTTP/2.0\r\n\r\n"),
    "empty request line": (400, b"\r\n"),
    "Content-Length not a number": (
        400, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
    "Content-Length negative": (
        400, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
    "Content-Length signed": (
        400, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
    "Content-Length beyond any integer we would parse": (
        400, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: " + b"9" * 5000
        + b"\r\n\r\n"),
    "two Content-Lengths that disagree": (
        400, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: 5\r\n"
             b"Content-Length: 6\r\n\r\nhello!"),
    "Transfer-Encoding": (
        501, b"PUT /kv/0 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"5\r\nhello\r\n0\r\n\r\n"),
    "body over the limit, and already on its way": (
        413, b"PUT /kv/0 HTTP/1.1\r\nContent-Length: "
        + str(api.MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
        + b"x" * (256 * 1024)),
    "request line over the limit": (
        431, b"GET /" + _PAST_THE_LINE_LIMIT + b" HTTP/1.1\r\n\r\n"),
    "header line over the limit": (
        431, b"GET /status HTTP/1.1\r\nX-Pad: " + _PAST_THE_LINE_LIMIT
        + b"\r\n\r\n"),
    "too many header lines": (
        431, b"GET /status HTTP/1.1\r\n"
        + b"X-Pad: 1\r\n" * (api.MAX_HEADER_LINES + 1) + b"\r\n"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_unframeable_request_is_refused_typed_then_closed(case):
    want, raw = REFUSALS[case]

    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _connect(node)
        # a well-formed request after the bad one must never be parsed
        writer.write(raw + _put(0, "smuggled"))
        status, headers, body = await _response(reader)
        assert status == want
        assert headers["connection"] == "close"
        assert set(json.loads(body)) == {"error"} and body.count(b"\n") == 1
        assert await reader.read() == b""
        writer.close()
        await _until(lambda: node.status()["http_open"] == 0,
                     "the refused connection to be dropped")
        assert node.status()["http_requests"] == 0
        assert node.status()["history_events"] == 0

        reader, writer = await _connect(node)
        writer.write(_request("GET", "/status"))
        status, _, _ = await _response(reader)
        assert status == 200
        writer.close()

    run(scenario)


def test_repeated_content_length_that_agrees_and_header_limit_are_served():
    async def scenario(nodes):
        var, _ = _vars_of(nodes[0].topology, 0)
        body = json.dumps({"value": 1}).encode()
        reader, writer = await _connect(nodes[0])
        writer.write(_request(
            "PUT", f"/kv/{var}", body,
            headers=[f"Content-Length: {len(body)}"]
            + ["X-Pad: 1"] * (api.MAX_HEADER_LINES - 3)))
        status, headers, _ = await _response(reader)
        assert status == 200 and "connection" not in headers
        writer.close()

    run(scenario)


def test_eof_in_mid_request_is_a_silent_close():
    async def scenario(nodes):
        reader, writer = await _connect(nodes[0])
        writer.write(b"PUT /kv/0 HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal")
        writer.write_eof()
        assert await reader.read() == b""
        writer.close()
        assert nodes[0].status()["http_requests"] == 0

    run(scenario)


def test_handler_exception_answers_500_and_keeps_the_connection(monkeypatch):
    async def scenario(nodes):
        node = nodes[0]
        var, _ = _vars_of(node.topology, 0)

        def boom(var, value):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(node, "put", boom)
        reader, writer = await _connect(node)
        writer.write(_put(var, 1))
        status, headers, body = await _response(reader)
        assert status == 500 and "connection" not in headers
        assert json.loads(body) == {"error": "disk on fire"}
        writer.write(_request("GET", f"/kv/{var}"))
        status, _, _ = await _response(reader)
        assert status == 200
        assert node.status()["http_connections"] == 1
        writer.close()

    run(scenario)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_close_ends_an_idle_kept_connection():
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _connect(node)
        writer.write(_request("GET", "/status"))
        assert (await _response(reader))[0] == 200
        await node.close()
        assert node.status()["http_open"] == 0
        assert await reader.read() == b""
        writer.close()
        # no handler task is left for the loop's shutdown to cancel
        await _only_this_task_left(turns=5)

    run(scenario, n_sites=1)


def test_client_leaving_behind_a_pending_remote_get():
    async def scenario(nodes):
        node = nodes[0]
        _, remote = _vars_of(node.topology, 0)
        reader, writer = await _connect(node)
        writer.write(_request("GET", f"/kv/{remote}"))
        await _until(lambda: node.status()["pending_channel"] == 1,
                     "the fetch to be waiting for a link")
        writer.close()
        await asyncio.sleep(0.002)
        assert node.status()["http_open"] == 1  # still behind its read
        await nodes[1].start()  # the RM arrives; its client is gone
        await _until(lambda: node.status()["http_open"] == 0,
                     "the orphaned handler to finish")
        assert node.status()["ops_completed"] == 1

    run(scenario, start=[0])


def test_close_ends_a_handler_behind_a_pending_remote_get():
    async def scenario(nodes):
        node = nodes[0]
        _, remote = _vars_of(node.topology, 0)
        reader, writer = await _connect(node)
        writer.write(_request("GET", f"/kv/{remote}"))
        await _until(lambda: node.status()["pending_channel"] == 1,
                     "the fetch to be waiting for a link")
        await node.close()
        assert node.status()["http_open"] == 0
        assert await reader.read() == b""
        writer.close()

    run(scenario, start=[0])


def test_local_get_completes_without_suspending():
    async def scenario(nodes):
        node = nodes[0]
        var, _ = _vars_of(node.topology, 0)
        write_id = node.put(var, "v")
        coro = node.get(var)
        with pytest.raises(StopIteration) as stop:
            coro.send(None)  # one step, no loop involved
        assert stop.value.value == ("v", write_id, False)

    run(scenario)


# ----------------------------------------------------------------------
# callbacks, not tasks
# ----------------------------------------------------------------------
def test_a_served_connection_costs_no_task(monkeypatch):
    async def scenario(nodes):
        node = nodes[0]
        _, remote = _vars_of(node.topology, 0)
        await _until(lambda: all(n.status()["peer_links"] for n in nodes),
                     "all peer links")
        # the peer takes the FM and never answers: the read stays open
        monkeypatch.setattr(nodes[1].core, "on_message", lambda src, m: None)
        clients = [await _connect(node) for _ in range(3)]
        for reader, writer in clients[:2]:  # two idle kept connections
            writer.write(_request("GET", "/status"))
            assert (await _response(reader))[0] == 200
        clients[2][1].write(_request("GET", f"/kv/{remote}"))
        await _until(lambda: node.core.protocol.pending_count == 1
                     and node.status()["pending_channel"] == 0,
                     "the third to be parked behind its remote GET")
        assert node.status()["http_open"] == 3
        assert asyncio.all_tasks() == {asyncio.current_task()}

        await node.close()
        assert node.status()["http_open"] == 0
        for reader, writer in clients:
            assert await reader.read() == b""
            writer.close()

    run(scenario)


def test_remote_get_times_out_504_and_the_backlog_behind_it_is_served(
        monkeypatch):
    monkeypatch.setattr(node_module, "READ_TIMEOUT_MS", 20.0)

    async def scenario(nodes):
        node = nodes[0]  # its peer never starts: no RM will come
        _, remote = _vars_of(node.topology, 0)
        reader, writer = await _connect(node)
        writer.write(_request("GET", f"/kv/{remote}")
                     + _request("GET", "/status"))
        status, headers, body = await _response(reader)
        assert status == 504 and "connection" not in headers
        assert json.loads(body) == {"error": "read timed out", "var": remote}
        status, _, body = await _response(reader)
        assert status == 200 and json.loads(body)["http_requests"] == 2
        writer.close()
        with pytest.raises(asyncio.TimeoutError):  # the same path, awaited
            await node.get(remote)

    run(scenario, start=[0])


def test_a_client_that_does_not_read_stalls_only_itself():
    async def settled(read, turns=20):
        """``read()``, once it has stopped changing."""
        last, same = read(), 0
        while same < turns:
            await asyncio.sleep(0.001)
            now = read()
            last, same = now, same + 1 if now == last else 0
        return last

    async def scenario(nodes):
        node = nodes[0]
        for _ in range(10):
            node.put(0, "x" * 10_000)
        size = len(api.encode_events(node.core.history.events))
        asked = 24 * 1024 * 1024 // size  # more than socket buffers hold
        # a small, fixed receive buffer: the kernel must not soak it all up
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(
            sock, (HOST, node.spec.http_port))
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(_request("GET", "/history") * asked)
        served = await settled(lambda: node.status()["http_requests"])
        assert 0 < served < asked  # parked behind its unread replies

        other_reader, other = await _connect(node)  # served meanwhile
        other.write(_request("GET", "/status"))
        assert (await _response(other_reader))[0] == 200
        other.close()

        for _ in range(asked):  # reading lets the rest through, in order
            status, _, body = await _response(reader)
            assert status == 200 and len(body) == size
        assert node.status()["http_requests"] == asked + 1
        writer.close()

    run(scenario, n_sites=1)


# ----------------------------------------------------------------------
# a value no peer message can carry is refused before the write moves
# ----------------------------------------------------------------------
#: bodies Python's JSON parser takes whose value no message can carry
UNCARRIABLE = {
    "nan": b'{"value": NaN}',
    "inf": b'{"value": Infinity}',
    "-inf": b'{"value": -Infinity}',
    "overflow": b'{"value": 1e999}',
    "nested": b'{"value": [1, {"k": NaN}]}',
    "surrogate": b'{"value": "\\ud800"}',
}


@pytest.mark.parametrize("body", UNCARRIABLE.values(), ids=UNCARRIABLE.keys())
def test_put_of_a_value_no_message_can_carry_is_400_and_moves_nothing(body):
    async def scenario(nodes):
        node, peer = nodes
        await _until(lambda: all(len(n.status()["peer_links"]) == 1
                                 for n in nodes), "both peer links")
        reader, writer = await _connect(node)
        writer.write(_request("PUT", "/kv/0", body))
        status, headers, reply = await _response(reader)
        assert status == 400 and "connection" not in headers
        assert set(json.loads(reply)) == {"error"}
        assert node.status()["history_events"] == 0
        assert node.core.protocol.clock == 0  # no write id was spent
        writer.write(_put(0, "ok"))  # the same kept connection
        status, _, reply = await _response(reader)
        assert status == 200
        assert json.loads(reply)["write_id"] == {"site": 0, "clock": 1}
        writer.close()
        await _until(lambda: peer.status()["history_events"] == 1
                     and node.status()["pending_channel"] == 0,
                     "the write to apply at the peer")
        report = check_causal_consistency(
            merge_event_lists([n.core.history.events for n in nodes]),
            build_placement(node.topology))
        assert report.ok, report.violations

    run(scenario, replication_factor=2)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), [1.0, float("nan")],
    {"k": {1: "x"}}, (1, 2), "\ud800", 2 ** 4000,
], ids=["nan", "inf", "-inf", "nested-nan", "int-key", "tuple", "surrogate",
        "huge-int"])
def test_loopback_write_of_a_value_no_message_can_carry_moves_nothing(value):
    # before the check a NaN bumped the clock and recorded the write,
    # then the encoder raised: the checker reported missing-apply for
    # ("w", 0, 1) at both replicas from then on
    cluster = LoopbackCluster(default_topology(
        3, protocol="opt-track", replication_factor=2))
    with pytest.raises(CodecError):
        cluster.write(0, 0, value)
    assert len(cluster.history) == 0
    wid = cluster.write(0, 0, "ok")
    cluster.settle()
    assert wid.clock == 1
    assert cluster.check().ok
    assert all(cluster.read(site, 0) == "ok"
               for site in cluster.placement.replicas(0))
