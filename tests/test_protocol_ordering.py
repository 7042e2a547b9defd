"""Message-level ordering tests: constructed out-of-order deliveries.

These bypass the network and push messages directly into protocol
instances, pinning down the exact buffering/cascade behaviour of each
activation predicate — the kind of interleaving that random simulation
hits only occasionally.
"""

import numpy as np
import pytest

from repro.core.base import ProtocolContext, create_protocol
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry
from repro.core.messages import (
    CRPSM,
    FetchMessage,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)
from repro.memory.replication import RoundRobinPlacement
from repro.memory.store import SiteStore, WriteId
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, Network


def make_proto(name, site=1, n=3, placement=None):
    placement = placement or RoundRobinPlacement(n, 4, n)
    sim = Simulator()
    net = Network(sim, n, ConstantLatency(5.0), collector=MetricsCollector())
    ctx = ProtocolContext(
        site=site, n_sites=n, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=net, clock=sim, collector=MetricsCollector(),
    )
    proto = create_protocol(name, ctx)
    net.register(site, proto.on_message)
    return proto, ctx


class TestOptPOrdering:
    def test_reversed_fifo_pair_buffers_then_cascades(self):
        proto, ctx = make_proto("optp")
        m1 = OptPSM(0, "a", WriteId(0, 1), VectorClock(3, [1, 0, 0]))
        m2 = OptPSM(0, "b", WriteId(0, 2), VectorClock(3, [2, 0, 0]))
        proto.on_message(0, m2)
        assert ctx.store.read(0).value is None
        proto.on_message(0, m1)
        assert ctx.store.read(0).value == "b"
        assert proto.pending_count == 0

    def test_cross_writer_dependency_buffers(self):
        proto, ctx = make_proto("optp")
        # writer 2's update depends on writer 0's first write
        dep = OptPSM(1, "y", WriteId(2, 1), VectorClock(3, [1, 0, 1]))
        proto.on_message(2, dep)
        assert proto.pending_count == 1
        base = OptPSM(0, "x", WriteId(0, 1), VectorClock(3, [1, 0, 0]))
        proto.on_message(0, base)
        assert proto.pending_count == 0
        assert ctx.store.read(1).value == "y"

    def test_independent_writers_never_block(self):
        proto, ctx = make_proto("optp")
        for writer in (0, 2):
            vec = VectorClock(3)
            vec.increment(writer)
            proto.on_message(writer, OptPSM(writer, f"w{writer}",
                                            WriteId(writer, 1), vec))
        assert proto.pending_count == 0


class TestCRPOrdering:
    def test_three_site_chain_reversed(self):
        proto, ctx = make_proto("opt-track-crp")
        # chain: (0,1) -> (2,1) -> (0,2); delivered in reverse
        m1 = CRPSM(0, "a", WriteId(0, 1), ())
        m2 = CRPSM(1, "b", WriteId(2, 1), ((0, 1),))
        m3 = CRPSM(2, "c", WriteId(0, 2), ((2, 1),))
        proto.on_message(0, m3)
        proto.on_message(2, m2)
        assert proto.pending_count == 2
        proto.on_message(0, m1)
        assert proto.pending_count == 0
        assert proto.applied == [2, 0, 1]


class TestFullTrackOrdering:
    def test_partial_dest_sets_gate_correctly(self):
        # site 1 replicates vars {0,1,4,5...} under RoundRobin(3,4,2)?
        placement = RoundRobinPlacement(3, 3, 2)  # var v at {v, v+1 mod 3}
        proto, ctx = make_proto("full-track", site=1, n=3, placement=placement)
        # writer 0 writes var 0 (dests {0,1}) then var 1 (dests {1,2});
        # both destined to site 1; deliver in reverse
        m_a = MatrixClock(3)
        m_a.increment(0, [0, 1])
        sm_a = FullTrackSM(0, "a", WriteId(0, 1), m_a)
        m_b = m_a.copy()
        m_b.increment(0, [1, 2])
        sm_b = FullTrackSM(1, "b", WriteId(0, 2), m_b)
        proto.on_message(0, sm_b)
        assert proto.pending_count == 1  # waits for the first write
        proto.on_message(0, sm_a)
        assert proto.pending_count == 0
        assert ctx.store.read(0).value == "a"
        assert ctx.store.read(1).value == "b"

    def test_write_not_destined_here_never_gates(self):
        placement = RoundRobinPlacement(3, 3, 1)  # var v at site v only
        proto, ctx = make_proto("full-track", site=1, n=3, placement=placement)
        # writer 0 wrote var 2 (destined only to site 2), then var 1
        m = MatrixClock(3)
        m.increment(0, [2])
        m.increment(0, [1])
        sm = FullTrackSM(1, "v", WriteId(0, 1), m)
        proto.on_message(0, sm)
        assert proto.pending_count == 0  # var-2 write is irrelevant here
        assert ctx.store.read(1).value == "v"


class TestOptTrackOrdering:
    def setup_method(self):
        self.placement = RoundRobinPlacement(3, 3, 1)  # var v at site v

    def test_sm_gated_by_piggybacked_record(self):
        proto, ctx = make_proto("opt-track", site=1, n=3,
                                placement=self.placement)
        # writer 0's second write (to var 1) depends on its first (also
        # var 1, clock 1): record names site 1
        dep_entry = PiggybackEntry(0, 1, frozenset({1}))
        sm2 = OptTrackSM(1, "second", WriteId(0, 2), (dep_entry,))
        proto.on_message(0, sm2)
        assert proto.pending_count == 1
        sm1 = OptTrackSM(1, "first", WriteId(0, 1), ())
        proto.on_message(0, sm1)
        assert proto.pending_count == 0
        assert ctx.store.read(1).value == "second"

    def test_record_for_other_site_ignored(self):
        proto, ctx = make_proto("opt-track", site=1, n=3,
                                placement=self.placement)
        foreign = PiggybackEntry(0, 1, frozenset({2}))  # gates site 2, not 1
        sm = OptTrackSM(1, "v", WriteId(0, 2), (foreign,))
        proto.on_message(0, sm)
        assert proto.pending_count == 0
        assert ctx.store.read(1).value == "v"

    def test_rm_gated_until_dependency_applied(self):
        proto, ctx = make_proto("opt-track", site=1, n=3,
                                placement=self.placement)
        # remote read of var 2 is outstanding; the RM's log says the
        # fetched value depends on write (0,1) destined to site 1
        results = []
        proto.read(2, lambda v, wid, remote: results.append(v))
        (req_id,) = proto._fetches.keys()
        rm = OptTrackRM(
            var=2, value="fetched", write_id=WriteId(2, 1),
            log=(PiggybackEntry(0, 1, frozenset({1})),),
            request_id=req_id,
        )
        proto.on_message(2, rm)
        assert results == []           # gated
        assert proto.pending_count == 2  # buffered RM + outstanding fetch
        proto.on_message(0, OptTrackSM(1, "dep", WriteId(0, 1), ()))
        assert results == ["fetched"]  # cascade completed the read
        assert proto.pending_count == 0

    def test_fm_gated_until_requirement_applied(self):
        proto, ctx = make_proto("opt-track", site=1, n=3,
                                placement=self.placement)
        net_sent = []
        ctx.network.register(2, lambda s, m: net_sent.append(m))
        fm = FetchMessage(var=1, reader=2, request_id=7,
                          requirements=((0, 1),))
        proto.on_message(2, fm)
        assert proto.pending_count == 1  # held: requirement unmet
        proto.on_message(0, OptTrackSM(1, "dep", WriteId(0, 1), ()))
        assert proto.pending_count == 0
        ctx.clock.run()
        assert len(net_sent) == 1      # the RM finally went out
        assert net_sent[0].value == "dep"
