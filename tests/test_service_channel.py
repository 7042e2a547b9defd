"""What only the live channel host has: sender identity and the
validation of frames from untrusted peers.  Channel behaviour itself is
in ``test_channel.py``, over both drivers."""

import pytest

from repro.core.netpolicy import RetransmitPolicy
from repro.service import codec
from repro.service.bootstrap import build_placement, default_topology
from repro.service.channel import ServiceTransport
from repro.service.codec import dumps, loads, message_to_wire
from repro.service.loopback import LoopbackCluster
from repro.service.runtime import StepClock

from .test_channel import LiveDriver, ids, message
from .test_service_codec import ILL_SHAPED_MESSAGES, OUT_OF_MEMBERSHIP


class TestServiceTransport:
    def test_sender_identity_enforced(self):
        d = LiveDriver()
        with pytest.raises(ValueError, match="asked to send as"):
            d.transports[0].send(1, 0, message(0))

    def test_malformed_frames_ignored(self):
        d = LiveDriver(n=3)
        d.send(0, 1, 0)
        d.settle()
        transport = d.transports[0]
        sender = d.sender(0, 1)
        before = (sender.next_seq, dict(sender.unacked), sender.rto)
        bad = [
            {"k": "data"},                                    # no src
            {"k": "bogus", "src": 1},
            {"k": "ack", "src": 1},                           # no cum
            {"k": "ack", "src": 1, "cum": "9"},
            {"k": "ack", "src": 1, "cum": True},
            {"k": "data", "src": 1},                          # no seq, no m
            {"k": "data", "src": 1, "seq": "x", "m": {}},
            {"k": "data", "src": 1, "seq": 0, "m": {}},       # m is no message
            {"k": "data", "src": 99, "seq": 5, "m": {}},      # not a member
            {"k": "data", "src": 0, "seq": 0, "m": {}},       # this site itself
        ]
        # a greeting is its link's first frame and the node's to check
        # (accept_link): on a channel it is one more stray frame, as is
        # whatever the parser returned that is not an object
        bad += [{"k": "hello", "src": 1, "v": codec.WIRE_VERSION},
                [], "data", 7, None]
        # in sequence, from a member, well tagged - and not buildable
        bad += [{"k": "data", "src": 1, "seq": 0, "m": wire}
                for wire in ILL_SHAPED_MESSAGES]
        # buildable, but naming a site this 3-node cluster does not have
        bad += [{"k": "data", "src": 1, "seq": 0, "m": message_to_wire(m)}
                for m in OUT_OF_MEMBERSHIP]
        for frame in bad:
            transport.on_frame(frame)
        d.settle()
        assert transport.malformed_frames == len(bad)
        assert ids(d, 0) == []
        assert (sender.next_seq, dict(sender.unacked), sender.rto) == before
        # a non-member never gets channel state, an ack or a dial
        assert sorted(transport._channels) == [(0, 1)]
        assert d.injector.decisions == 2  # the one data frame and its ack
        # none of them advanced the receiver: seq 0 is still the next one
        d.send(1, 0, 7)
        d.settle()
        assert ids(d, 0) == [7]
        assert transport.malformed_frames == len(bad)

    @pytest.mark.parametrize(
        "wire", [message_to_wire(m) for m in OUT_OF_MEMBERSHIP],
        ids=lambda w: w["t"])
    def test_out_of_membership_site_does_not_wedge_the_node(self, wire):
        # before the ingress check a log record <99,1,{0}> was buffered,
        # PiggybackView.blocker indexed applied[99], and every later
        # drain re-raised: the node never applied anything again
        protocol, p = {"FullTrackSM": ("full-track", 2),
                       "FullTrackRM": ("full-track", 2),
                       "CRPSM": ("opt-track-crp", None),
                       "OptPSM": ("optp", None)}.get(
                           wire["t"], ("opt-track", 2))
        topology = default_topology(3, protocol=protocol, n_vars=6,
                                    replication_factor=p)
        cluster = LoopbackCluster(topology)
        cluster.transports[0].on_frame(
            loads(dumps({"k": "data", "src": 1, "seq": 0, "m": wire})))
        cluster.settle()
        assert cluster.transports[0].malformed_frames == 1
        assert cluster.nodes[0].protocol.pending_count == 0
        placement = build_placement(topology)
        var = next(v for v in range(6)
                   if {0, 1} <= set(placement.replicas(v)))
        wid = cluster.put(1, var, "legit")
        cluster.settle()
        assert cluster.get(0, var) == ("legit", wid, False)


class TestOneEncodePerMessage:
    def _transport(self, frames, monkeypatch):
        calls = []
        real = codec.dumps
        monkeypatch.setattr(
            codec, "dumps", lambda obj: calls.append(obj) or real(obj))
        clock = StepClock()
        transport = ServiceTransport(
            0, 2, clock, lambda dst, frame: frames.append((dst, frame)),
            lambda src, msg: None,
            policy=RetransmitPolicy(base_rto_ms=50.0, jitter_ms=0.0))
        return transport, clock, calls

    def test_retransmission_reuses_the_first_transmission_bytes(
            self, monkeypatch):
        frames = []
        transport, clock, calls = self._transport(frames, monkeypatch)
        transport.send(0, 1, message(5))
        clock.advance(400.0)  # nobody acks: the timer resends, and again
        assert transport.channel(1).retransmissions >= 2
        assert len(frames) == 1 + transport.channel(1).retransmissions
        assert all(type(f) is bytes for _, f in frames)
        assert {f for _, f in frames} == {frames[0][1]}
        assert len(calls) == 1  # one JSON pass, however often it is sent
        # and the packet's payload *is* those bytes
        (packet,) = transport.channel(1).sender.unacked.values()
        assert packet.payload == codec.encode_message(message(5))
        assert frames[0][1] == codec.data_frame(0, 0, packet.payload)

    def test_acks_cost_no_json_pass(self, monkeypatch):
        frames = []
        transport, _, calls = self._transport(frames, monkeypatch)
        inbound = codec.data_frame(1, 0, codec.encode_message(message(1)))
        calls.clear()
        transport.on_frame(loads(inbound))
        assert frames == [(1, codec.ack_frame(0, 0))] and calls == []
