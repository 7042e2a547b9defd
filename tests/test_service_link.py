"""The live node's peer link, in-process: the greeting that carries the
wire version, and what happens to a link whose bytes cannot be parsed.

Same harness as ``test_service_api.py`` (``ServiceNode`` s on OS-assigned
ports in one loop, a raw streams client, any exception that reaches the
loop's handler fails the test), pointed at the *peer* port.
"""

import asyncio

import pytest

from repro.service.codec import (
    WIRE_VERSION,
    ack_frame,
    data_frame,
    dumps,
    encode_message,
    hello_frame,
    pack_frame,
)

from .test_channel import message
from .test_service_api import HOST, _until, _vars_of, run


async def _dial(node):
    return await asyncio.open_connection(HOST, node.spec.peer_port)


async def _closed_by_peer(reader):
    assert await asyncio.wait_for(reader.read(), 5.0) == b""


def _links_up(nodes):
    return all(len(n.status()["peer_links"]) == len(nodes) - 1 for n in nodes)


#: first frames a v2 node must not take for a greeting
NOT_A_GREETING = {
    "v1 hello": dumps({"k": "hello", "src": 1}),
    "version 1": dumps({"k": "hello", "src": 1, "v": 1}),
    "version 3": dumps({"k": "hello", "src": 1, "v": WIRE_VERSION + 1}),
    "version '2'": dumps({"k": "hello", "src": 1, "v": str(WIRE_VERSION)}),
    "non-member": hello_frame(9),
    "itself": hello_frame(0),
    "src true": dumps({"k": "hello", "src": True, "v": WIRE_VERSION}),
    "src null": dumps({"k": "hello", "src": None, "v": WIRE_VERSION}),
    "extra key": dumps({"k": "hello", "src": 1, "v": WIRE_VERSION, "x": 0}),
    "data first": data_frame(1, 0, encode_message(message(1))),
    "ack first": ack_frame(1, 0),
    "not an object": b"[]",
}


@pytest.mark.parametrize("first", NOT_A_GREETING.values(),
                         ids=NOT_A_GREETING.keys())
def test_link_not_opened_by_this_versions_hello_is_refused(first):
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _dial(node)
        # a whole conversation follows the bad first frame: none of it
        # may reach the channel
        writer.write(pack_frame(first)
                     + pack_frame(hello_frame(1))
                     + pack_frame(data_frame(1, 0, encode_message(message(7)))))
        await _closed_by_peer(reader)
        writer.close()
        status = node.status()
        assert status["links_refused"] == 1
        assert status["malformed_frames"] == 0
        assert status["history_events"] == 0
        # no channel state appeared: the only channels are the ones the
        # node's own dials may have created, and none has received
        assert all(ch.receiver.next_expected == 0
                   for ch in node.transport._channels.values())
        assert node.core.protocol.pending_count == 0

    run(scenario, n_sites=2, start=[0])


def test_greeted_link_is_served_and_a_second_hello_is_just_a_bad_frame():
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _dial(node)
        writer.write(pack_frame(hello_frame(1)))
        writer.write(pack_frame(ack_frame(1, -1)))     # fine, nothing acked
        writer.write(pack_frame(hello_frame(1)))       # not first: a stray
        await _until(lambda: node.status()["malformed_frames"] == 1,
                     "the stray hello to be counted")
        assert node.status()["links_refused"] == 0
        writer.close()

    run(scenario, n_sites=2, start=[0])


#: payloads the parser cannot return an object for; the first four used
#: to leave _handle_peer as ValueError / RecursionError /
#: UnicodeDecodeError and kill the reader task with nobody to retrieve it
UNPARSABLE = {
    "digits": b'{"k":"ack","src":1,"cum":' + b"1" * 5000 + b"}",
    "depth": b"[" * 100_000 + b"]" * 100_000,
    "utf": b'\xff\xfe{"k":1}',
    "nan": b'{"k":"ack","src":1,"cum":NaN}',
    "syntax": b"{nope",
}


@pytest.mark.parametrize("payload", UNPARSABLE.values(),
                         ids=UNPARSABLE.keys())
def test_unparsable_payload_closes_the_link_typed_and_counted(payload):
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _dial(node)
        writer.write(pack_frame(hello_frame(1)) + pack_frame(payload)
                     + pack_frame(data_frame(1, 0, encode_message(message(7)))))
        await _closed_by_peer(reader)
        writer.close()
        status = node.status()
        assert status["malformed_frames"] == 1
        assert status["links_refused"] == 0
        assert status["history_events"] == 0
        # ... and as the very first frame it is the same typed close
        reader, writer = await _dial(node)
        writer.write(pack_frame(payload))
        await _closed_by_peer(reader)
        writer.close()
        assert node.status()["malformed_frames"] == 2
        # the node is alive: it still serves a greeted link
        reader, writer = await _dial(node)
        writer.write(pack_frame(hello_frame(1))
                     + pack_frame(data_frame(1, 0, encode_message(message(3)))))
        await _until(
            lambda: node.transport.channel(1).receiver.next_expected == 1,
            "the data frame to be taken")
        writer.close()

    run(scenario, n_sites=2, start=[0])


def test_oversized_length_prefix_closes_the_link():
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _dial(node)
        writer.write(pack_frame(hello_frame(1)) + b"\xff\xff\xff\xff")
        await _closed_by_peer(reader)
        writer.close()
        assert node.status()["malformed_frames"] == 1

    run(scenario, n_sites=2, start=[0])


def test_real_cluster_reports_clean_links_in_status():
    async def scenario(nodes):
        await _until(lambda: _links_up(nodes), "all peer links")
        local, remote = _vars_of(nodes[0].topology, 0)
        nodes[0].put(local, 1)
        value, _, was_remote = await nodes[0].get(remote)  # an FM and an RM
        assert value is None and was_remote
        await _until(lambda: all(n.status()["pending_channel"] == 0
                                 for n in nodes), "quiescence")
        assert sum(n.transport.messages_sent for n in nodes) == 2
        for node in nodes:
            status = node.status()
            assert status["malformed_frames"] == 0
            assert status["links_refused"] == 0

    run(scenario, n_sites=3)
