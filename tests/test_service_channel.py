"""What only the live channel host has: sender identity and the
validation of frames from untrusted peers.  Channel behaviour itself is
in ``test_channel.py``, over both drivers."""

import cProfile
import json
import os
import pstats

import pytest

from repro.core.netpolicy import RetransmitPolicy
from repro.loopback import LoopbackCluster
from repro.metrics.collector import MetricsCollector
from repro.service import codec
from repro.service.bootstrap import default_topology
from repro.service.channel import ServiceTransport
from repro.service.codec import (
    CodecError,
    ack_frame,
    data_frame,
    dumps,
    hello_frame,
)
from repro.sim.engine import Simulator

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
        head = codec._HEAD.pack
        fm = dumps(message(3))
        bad = [
            head(ord("D"), 99, 5) + fm,                      # not a member
            head(ord("D"), 0, 0) + fm,                       # this site itself
            head(ord("D"), 1, -1) + fm,                      # a negative seq
            data_frame(1, 0, b""),                           # no message
            data_frame(1, 0, fm[:-1]),                       # a cut message
            data_frame(1, 0, fm + b"\x00"),                 # one byte more
            ack_frame(1, -2),                                # below "none"
            ack_frame(1, 0) + b"\x00",                      # an ack with a body
            ack_frame(99, 0),
            ack_frame(0, 0),
        ]
        # a greeting is its link's first frame and the node's to check
        # (accept_link): on a channel it is one more stray frame
        bad += [hello_frame(1), hello_frame(1) + b"\x00"]
        # in sequence, from a member, well framed - and not buildable
        bad += [data_frame(1, 0, data) for data in ILL_SHAPED_MESSAGES]
        # buildable, but naming a site this 3-node cluster does not have
        bad += [data_frame(1, 0, dumps(m)) for m in OUT_OF_MEMBERSHIP]
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

    @pytest.mark.parametrize("frame", [
        b"", b"D\x00\x01", b'{"k":"ack","src":1,"cum":0}', b"\xff" * 20,
    ], ids=["empty", "short", "json", "unknown-kind"])
    def test_bytes_without_a_frame_head_raise_typed(self, frame):
        # the link they came on is not speaking this format: the node
        # closes it (tests/test_service_link.py); nothing was counted or
        # touched here
        d = LiveDriver(n=3)
        transport = d.transports[0]
        with pytest.raises(CodecError, match="no frame head"):
            transport.on_frame(frame)
        with pytest.raises(CodecError, match="no frame head"):
            transport.accept_link(frame)
        assert (transport.malformed_frames, transport.links_refused) == (0, 0)
        assert transport._channels == {}

    @pytest.mark.parametrize("bad", OUT_OF_MEMBERSHIP,
                             ids=lambda m: type(m).__name__)
    def test_out_of_membership_site_does_not_wedge_the_node(self, bad):
        # before the ingress check a log record <99,1,{0}> was buffered,
        # PiggybackView.blocker indexed applied[99], and every later
        # drain re-raised: the node never applied anything again
        protocol, p = {"FullTrackSM": ("full-track", 2),
                       "FullTrackRM": ("full-track", 2),
                       "CRPSM": ("opt-track-crp", None),
                       "OptPSM": ("optp", None)}.get(
                           type(bad).__name__, ("opt-track", 2))
        topology = default_topology(3, protocol=protocol, n_vars=6,
                                    replication_factor=p)
        cluster = LoopbackCluster(topology)
        cluster.transports[0].on_frame(data_frame(1, 0, dumps(bad)))
        cluster.settle()
        assert cluster.transports[0].malformed_frames == 1
        assert cluster.nodes[0].protocol.pending_count == 0
        var = next(v for v in range(6)
                   if {0, 1} <= set(cluster.placement.replicas(v)))
        assert cluster.placement.is_replicated_at(var, 0)  # a local read
        wid = cluster.write(1, var, "legit")
        cluster.settle()
        assert cluster.read_with_id(0, var) == ("legit", wid)


def _profiled(run):
    """``{(path, name): calls}`` of every function ``run()`` called, from
    a ``cProfile`` of it -- as the benchmark counts them (bench/layers.py;
    CI bounds ``service.codec.dumps_calls`` by the messages sent)."""
    profile = cProfile.Profile()
    profile.runcall(run)
    return {(path, name): stat[1]
            for (path, _, name), stat in pstats.Stats(profile).stats.items()}


def _codec_calls(run):
    """Calls of each function of ``repro/service/codec.py``, by name."""
    return {name: calls for (path, name), calls in _profiled(run).items()
            if path == codec.__file__}


class TestOneEncodePerMessage:
    def _transport(self, frames):
        sim = Simulator()
        transport = ServiceTransport(
            0, 2, sim, lambda dst, frame: frames.append((dst, frame)),
            lambda src, msg: None, collector=MetricsCollector(),
            policy=RetransmitPolicy(base_rto_ms=50.0, jitter_ms=0.0))
        return transport, sim

    def test_retransmission_reuses_the_first_transmission_bytes(self):
        frames = []
        transport, sim = self._transport(frames)

        def send_and_resend():
            transport.send(0, 1, message(5))
            sim.run(until=400.0)  # nobody acks: the timer resends, and again

        calls = _codec_calls(send_and_resend)
        assert transport.channel(1).retransmissions >= 2
        assert len(frames) == 1 + transport.channel(1).retransmissions
        assert all(type(f) is bytes for _, f in frames)
        assert {f for _, f in frames} == {frames[0][1]}
        # one encode, however often it is sent -- and it is the function
        # the benchmark's counter sees, not a helper beside it
        assert calls["dumps"] == 1
        assert calls["data_frame"] == len(frames)
        # and the packet's payload *is* those bytes
        (packet,) = transport.channel(1).sender.unacked.values()
        assert packet.payload == codec.dumps(message(5))
        assert frames[0][1] == codec.data_frame(0, 0, packet.payload)

    def test_acks_cost_no_json_pass(self):
        # an ack is a frame head: no message encode and no JSON on its
        # way out, one decode of the data frame it answers on the way in
        frames = []
        transport, _ = self._transport(frames)
        inbound = codec.data_frame(1, 0, codec.dumps(message(1)))
        profiled = _profiled(lambda: transport.on_frame(inbound))
        assert frames == [(1, codec.ack_frame(0, 0))]
        calls = {name: n for (path, name), n in profiled.items()
                 if path == codec.__file__}
        assert "dumps" not in calls and calls["loads"] == 1
        json_dir = os.path.dirname(json.__file__)
        assert not [key for key in profiled
                    if key[0].startswith(json_dir) or "_json" in key[1]]


class TestLiveCounts:
    def test_each_node_counts_the_acks_it_sends(self):
        # a live node's channel events go into its own collector: every
        # data frame its receivers take is answered by one counted ack
        cluster = LoopbackCluster(default_topology(3, protocol="optp", n_vars=4))
        for k in range(8):
            for site in range(3):
                cluster.write(site, k % 4, k)
        cluster.settle()
        for transport, node in zip(cluster.transports, cluster.nodes):
            assert node.collector is transport.collector
            taken = sum(transport.channel(peer).receiver.next_expected
                        for peer in range(3) if peer != transport.site)
            assert taken == 16  # 8 writes from each of two peers
            assert node.collector.acks_sent == taken
            assert node.collector.ack_bytes > 0
