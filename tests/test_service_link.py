"""The live node's peer link, in-process: the greeting that carries the
wire version, and what happens to a link whose bytes cannot be parsed.

Same harness as ``test_service_api.py`` (``ServiceNode`` s on OS-assigned
ports in one loop, a raw streams client, any exception that reaches the
loop's handler fails the test), pointed at the *peer* port.
"""

import asyncio
import struct

import pytest

from repro.service import node as node_module
from repro.service.codec import (
    DATA,
    WIRE_VERSION,
    ack_frame,
    data_frame,
    dumps,
    frame_head,
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


def _hello(src, version):
    """A hello's frame head as the layout spells it: kind, site, number."""
    return struct.pack(">BHq", ord("H"), src, version)


#: first frames a v3 node must not take for a greeting.  (The ids are
#: the JSON era's; each case is now the frame head that fails that check.)
NOT_A_GREETING = {
    "v1 hello": _hello(1, 0),                     # no version, as v1 had
    "version 1": _hello(1, 1),
    "version 3": _hello(1, WIRE_VERSION + 1),     # a newer format
    "version '2'": _hello(1, WIRE_VERSION << 56),  # this one, little-endian
    "non-member": hello_frame(9),
    "itself": hello_frame(0),
    "src true": _hello(2, WIRE_VERSION),          # first id past the members
    "src null": _hello(0xFFFF, WIRE_VERSION),
    "extra key": hello_frame(1) + b"\x00",        # a byte after the head
    "data first": data_frame(1, 0, dumps(message(1))),
    "ack first": ack_frame(1, 0),
    "not an object": _hello(1, 2),                # the JSON format's number
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
                     + pack_frame(data_frame(1, 0, dumps(message(7)))))
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


#: payloads that do not open with this format's frame head: the JSON
#: era's unparsable ones (the first four used to leave _handle_peer as
#: ValueError / RecursionError / UnicodeDecodeError and kill the reader
#: task with nobody to retrieve it), which are also what a v2 peer
#: sends, and heads cut short or of no kind
UNPARSABLE = {
    "digits": b'{"k":"ack","src":1,"cum":' + b"1" * 5000 + b"}",
    "depth": b"[" * 100_000 + b"]" * 100_000,
    "utf": b'\xff\xfe{"k":1}',
    "nan": b'{"k":"ack","src":1,"cum":NaN}',
    "syntax": b"{nope",
    "short head": hello_frame(1)[:-1],
    "no kind": b"\x00" * 11,
}


@pytest.mark.parametrize("payload", UNPARSABLE.values(),
                         ids=UNPARSABLE.keys())
def test_unparsable_payload_closes_the_link_typed_and_counted(payload):
    async def scenario(nodes):
        node = nodes[0]
        reader, writer = await _dial(node)
        writer.write(pack_frame(hello_frame(1)) + pack_frame(payload)
                     + pack_frame(data_frame(1, 0, dumps(message(7)))))
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
                     + pack_frame(data_frame(1, 0, dumps(message(3)))))
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


# ----------------------------------------------------------------------
# the dialled half: a link the peer dropped is dialled again
# ----------------------------------------------------------------------
async def _read_frame(reader):
    size = int.from_bytes(await reader.readexactly(4), "big")
    return await reader.readexactly(size)


def test_dropped_outbound_link_is_redialled_and_the_channel_retransmits(
        monkeypatch):
    monkeypatch.setattr(node_module, "DIAL_RETRY_S", 0.002)

    async def scenario(nodes):
        node, peer = nodes
        _, remote = _vars_of(node.topology, 0)
        first_link = []  # the frames the stand-in for node 1 was sent

        async def take_two_frames_then_hang_up(reader, writer):
            stand_in.close()  # the re-dial is refused until node 1 starts
            first_link.append(await _read_frame(reader))
            first_link.append(await _read_frame(reader))
            writer.close()

        stand_in = await asyncio.start_server(
            take_two_frames_then_hang_up, HOST, peer.spec.peer_port)
        await _until(lambda: node.status()["peer_links"] == [1],
                     "the dial to reach the stand-in")
        read = asyncio.ensure_future(node.get(remote))  # an FM, never acked
        await _until(lambda: node.status()["peer_links"] == [],
                     "the node to notice that its link was dropped")
        assert first_link[0] == hello_frame(0)
        assert frame_head(first_link[1])[0] == DATA
        assert node.status()["pending_channel"] == 1

        await peer.start()
        # a real node takes nothing before a hello: the second dial
        # greeted it, and the FM came again on the new link
        value, _, was_remote = await asyncio.wait_for(read, 5.0)
        assert value is None and was_remote
        assert node.status()["peer_links"] == [1]
        assert peer.status()["links_refused"] == 0
        assert peer.transport.channel(0).receiver.next_expected == 1
        assert node.transport.channel(1).retransmissions >= 1
        await _until(lambda: node.status()["pending_channel"] == 0,
                     "the retransmitted FM to be acked")

    run(scenario, n_sites=2, start=[0])


# ----------------------------------------------------------------------
# the dial schedule: a fresh dial backs off from ~1 ms, capped at
# DIAL_RETRY_S; a re-dial after a lost link waits the cap first
# ----------------------------------------------------------------------
def _count_dials(loop):
    """The loop time of every connect attempt made on ``loop`` from now."""
    times, connect = [], loop.create_connection

    def counted(*args, **kwargs):
        times.append(loop.time())
        return connect(*args, **kwargs)

    loop.create_connection = counted
    return times


def test_a_fresh_dial_takes_a_link_soon_after_the_peer_listens():
    async def scenario(nodes):
        node, peer = nodes
        loop = asyncio.get_running_loop()
        dials = _count_dials(loop)
        await node.start()
        await asyncio.sleep(0.02)
        assert node.status()["peer_links"] == [] and dials  # refused
        await peer.start()
        listening = loop.time()
        await _until(lambda: node.status()["peer_links"] == [1],
                     "the dial to reach the peer")
        # a flat DIAL_RETRY_S pause would take ~0.25 s here
        assert loop.time() - listening < 0.1

    run(scenario, n_sites=2, start=[])


def test_dials_to_a_peer_nobody_listens_for_back_off_to_the_cap():
    async def scenario(nodes):
        node = nodes[0]
        dials = _count_dials(asyncio.get_running_loop())
        await node.start()
        await asyncio.sleep(1.0)
        # at 0, ~1, 3, 7, 15, 31, 62, 125, 250 ms, then DIAL_RETRY_S apart
        assert len(dials) <= 13
        gaps = [b - a for a, b in zip(dials, dials[1:])]
        assert gaps[-1] >= node_module.DIAL_RETRY_S * 0.9
        assert node.status()["peer_links"] == []

    run(scenario, n_sites=2, start=[])


def test_a_peer_that_drops_every_link_is_redialled_at_the_cap():
    async def scenario(nodes):
        node, peer = nodes
        accepted = []

        async def take_the_hello_then_hang_up(reader, writer):
            accepted.append(await _read_frame(reader))
            writer.close()

        stand_in = await asyncio.start_server(
            take_the_hello_then_hang_up, HOST, peer.spec.peer_port)
        try:
            await node.start()
            await asyncio.sleep(0.6)
        finally:
            stand_in.close()
        # the fresh dial at once, then one re-dial per DIAL_RETRY_S
        assert 2 <= len(accepted) <= 3
        assert accepted[0] == hello_frame(0)

    run(scenario, n_sites=2, start=[])


# ----------------------------------------------------------------------
# the accepted half: framing is independent of how a read cuts the bytes
# ----------------------------------------------------------------------
class _Socketless:
    """What ``_InboundLink`` asks of its transport."""

    closed = False

    def close(self):
        self.closed = True


def _link_fed(nodes, *segments):
    """(on_frame sequence, next_expected, malformed_frames, closed) of
    node 0 after an inbound link received ``segments`` in that order."""
    node = nodes[0]
    seen = []
    taken = node.transport.on_frame
    node.transport.on_frame = lambda frame: (seen.append(frame), taken(frame))
    before = node.transport.malformed_frames
    link, transport = node_module._InboundLink(node), _Socketless()
    link.connection_made(transport)
    for segment in segments:
        if transport.closed:
            break  # a closed socket delivers nothing more
        link.data_received(segment)
    link.connection_lost(None)
    node.transport.on_frame = taken
    return (seen, node.transport.channel(1).receiver.next_expected,
            node.transport.malformed_frames - before, transport.closed)


def _conversation(k=4):
    frames = [hello_frame(1)]
    for seq in range(k):
        frames += [data_frame(1, seq, dumps(message(seq))),
                   ack_frame(1, seq - 1)]
    return frames


def test_frames_are_the_same_however_the_reads_cut_the_stream():
    frames = _conversation()
    stream = b"".join(map(pack_frame, frames))
    want = (frames[1:], 4, 0, False)

    async def scenario(nodes):
        assert _link_fed(nodes, stream) == want
        # a fresh cluster per cut would cost a second each; instead the
        # same conversation is replayed to the same receiver, which takes
        # a frame it has seen for a duplicate and stays where it was
        for cut in range(1, len(stream)):
            assert _link_fed(nodes, stream[:cut], stream[cut:]) == want
        assert _link_fed(nodes, *(stream[i:i + 1]
                                  for i in range(len(stream)))) == want

    run(scenario, n_sites=2, start=[])


def test_unparsable_payload_in_mid_segment_stops_the_link_there():
    frames = _conversation()
    segment = b"".join(map(pack_frame,
                           frames[:3] + [b"{nope"] + frames[3:]))

    async def scenario(nodes):
        seen, next_expected, malformed, closed = _link_fed(nodes, segment)
        # handed on, refused there for want of a head, and none after it
        assert seen == frames[1:3] + [b"{nope"]
        assert (next_expected, malformed, closed) == (1, 1, True)

    run(scenario, n_sites=2, start=[])


def test_oversized_length_prefix_alone_closes_the_link():
    async def scenario(nodes):
        seen, _, malformed, closed = _link_fed(
            nodes, pack_frame(hello_frame(1)), b"\xff\xff\xff\xff")
        assert (seen, malformed, closed) == ([], 1, True)  # no payload awaited

    run(scenario, n_sites=2, start=[])
