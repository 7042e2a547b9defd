"""Property test: the reliable channel gives exactly-once FIFO delivery.

For *random* fault plans layered under adversarial latencies, every
message handed to the transport arrives at its destination exactly once
and in per-channel FIFO order — no loss, no duplicates, no reordering
observable above it — on the simulator's driver and the live one.

Fault plans are constrained only enough to guarantee termination:
drop rates stay below 0.5 and any partition heals within the run.

Two more properties ride along: a sender's in-flight set is always in
sequence order and wholly below its backlog, whatever pauses and window
sizes do to it; and the injector's block-buffered stream hands out
exactly the doubles scalar ``Generator`` calls would have.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.netpolicy import RetransmitPolicy
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.faults import (
    NO_FAULT,
    ChannelFaults,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    Partition,
)
from repro.sim.network import AdversarialLatency, Network
from repro.sim.reliable import AckPacket

from .test_channel import LiveDriver, SimDriver

N_SITES = 4

#: tight timers so heavily-dropped runs converge in few simulated seconds
POLICY = RetransmitPolicy(base_rto_ms=80.0, max_rto_ms=1000.0, jitter_ms=8.0)

fault_plans = st.builds(
    FaultPlan.uniform,
    drop_rate=st.floats(0.0, 0.45),
    dup_rate=st.floats(0.0, 0.4),
    spike_rate=st.floats(0.0, 0.3),
    spike_ms=st.just((20.0, 600.0)),
    partitions=st.one_of(
        st.just(()),
        st.builds(
            lambda site, start, dur: (Partition([site], start, start + dur),),
            site=st.integers(0, N_SITES - 1),
            start=st.floats(0.0, 500.0),
            dur=st.floats(1.0, 2000.0),
        ),
    ),
)


class TestReliableProperties:
    @pytest.mark.parametrize("make", [SimDriver, LiveDriver],
                             ids=["sim", "live"])
    @given(
        plan=fault_plans,
        fault_seed=st.integers(0, 10_000),
        net_seed=st.integers(0, 10_000),
        sends=st.lists(
            st.tuples(st.integers(0, N_SITES - 1), st.integers(0, N_SITES - 1)),
            min_size=1, max_size=50,
        ),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exactly_once_fifo_under_random_faults(
        self, make, plan, fault_seed, net_seed, sends
    ):
        injector = FaultInjector(plan, rng=np.random.default_rng(fault_seed))
        if make is SimDriver:
            d = SimDriver(POLICY, n=N_SITES, injector=injector,
                          latency=AdversarialLatency(0.5, 800.0),
                          net_seed=net_seed)
        else:
            draw = Random(net_seed)
            d = LiveDriver(POLICY, n=N_SITES, injector=injector,
                           latency=lambda: draw.uniform(0.5, 800.0))
            # a live node never sends to itself (frames claiming to come
            # from the receiving site are rejected as malformed)
            sends = [(src, dst) for src, dst in sends if src != dst]

        sent: dict[tuple[int, int], int] = {}
        for src, dst in sends:
            key = (src, dst)
            d.send(src, dst, sent.get(key, 0))
            sent[key] = sent.get(key, 0) + 1
        d.settle()

        # exactly once, in send order, on every channel — and nothing
        # arrived on channels never sent on
        received: dict[tuple[int, int], list] = {}
        for dst, arrivals in d.got.items():
            for src, msg in arrivals:
                received.setdefault((src, dst), []).append(msg.request_id)
        for key, count in sent.items():
            assert received.get(key, []) == list(range(count)), (
                f"channel {key}: sent {count}, got {received.get(key)}"
            )
        assert set(received) <= set(sent)
        # the transport fully drained: no retransmission timer still live
        assert all(d.host(site).unacked_count() == 0
                   for site in range(N_SITES))


def assert_flight_in_seq_order(d):
    """``unacked`` in seq order and wholly below the backlog, everywhere."""
    for site in range(N_SITES):
        for ch in d.host(site)._channels.values():
            unacked, backlog = ch.sender.unacked, ch.sender.backlog
            assert list(unacked) == sorted(unacked), ch.sender
            assert (not backlog
                    or max(unacked, default=-1) < backlog[0].seq), ch.sender
            assert ([packet.seq for packet in backlog]
                    == sorted(packet.seq for packet in backlog)), ch.sender


pairs = st.tuples(st.integers(0, N_SITES - 1),
                  st.integers(0, N_SITES - 1)).filter(lambda p: p[0] != p[1])


#: few enough channels that windows fill, pauses land on a backlog and
#: acks come back while they hold
busy_pairs = st.sampled_from([(0, 1), (1, 0), (0, 2)])


class TestFlightOrder:
    @pytest.mark.parametrize("make", [SimDriver, LiveDriver],
                             ids=["sim", "live"])
    @given(
        window=st.integers(1, 4),
        drop_rate=st.floats(0.0, 0.4),
        fault_seed=st.integers(0, 10_000),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("send"), busy_pairs),
                st.tuples(st.just("send"), busy_pairs),
                st.tuples(st.just("pause"), busy_pairs),
                st.tuples(st.just("resume"), busy_pairs),
                st.tuples(st.just("run"), st.floats(1.0, 120.0)),
            ),
            min_size=1, max_size=60,
        ),
    )
    # the defect this pins: a slot freed under a pause let seq 2 into
    # flight ahead of backlogged seq 1
    @example(window=1, drop_rate=0.0, fault_seed=0,
             steps=[("send", (0, 1)), ("send", (0, 1)), ("pause", (0, 1)),
                    ("run", 30.0), ("send", (0, 1))])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unacked_stays_in_seq_order_below_the_backlog(
        self, make, window, drop_rate, fault_seed, steps
    ):
        injector = FaultInjector(FaultPlan.uniform(drop_rate=drop_rate),
                                 rng=np.random.default_rng(fault_seed))
        policy = RetransmitPolicy(base_rto_ms=80.0, max_rto_ms=1000.0,
                                  jitter_ms=8.0, send_window=window)
        d = make(policy, n=N_SITES, injector=injector)
        sent: dict[tuple[int, int], int] = {}
        for op, arg in steps:
            if op == "send":
                d.send(*arg, sent.get(arg, 0))
                sent[arg] = sent.get(arg, 0) + 1
            elif op == "pause":
                d.host(arg[0]).pause_pair(*arg)
            elif op == "resume":
                d.host(arg[0]).resume_pair(*arg)
            else:
                d.run(arg)
            assert_flight_in_seq_order(d)
        for src in range(N_SITES):
            for dst in range(N_SITES):
                d.host(src).resume_pair(src, dst)
        assert_flight_in_seq_order(d)
        d.settle()
        for (src, dst), count in sent.items():
            got = [msg.request_id for s, msg in d.got[dst] if s == src]
            assert got == list(range(count))
        assert all(d.host(site).unacked_count() == 0
                   for site in range(N_SITES))


class ScalarInjector:
    """The injector as it was before its stream was buffered: one scalar
    ``Generator`` call per draw, ``severed`` / ``faults_for`` / the quiet
    test on every decision.  The reference the buffered one must equal."""

    def __init__(self, plan, rng):
        self.plan = plan
        self.rng = rng
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()

    def uniform(self, lo, hi):
        self.draws += 1
        return float(self.rng.uniform(lo, hi))

    def decide(self, src, dst, now):
        if any(p.severs(src, dst, now) for p in self.plan.partitions):
            return FaultDecision(True, 0, 0.0, True)
        faults = self.plan.faults_for(src, dst)
        if not (faults.drop_rate or faults.dup_rate or faults.spike_rate):
            return NO_FAULT
        if faults.drop_rate and self.random() < faults.drop_rate:
            return FaultDecision(True, 0, 0.0, False)
        duplicates = 0
        if faults.dup_rate and self.random() < faults.dup_rate:
            duplicates = 1
        extra = 0.0
        if faults.spike_rate and self.random() < faults.spike_rate:
            extra = self.uniform(*faults.spike_ms)
        if duplicates == 0 and extra == 0.0:
            return NO_FAULT
        return FaultDecision(False, duplicates, extra, False)


rates = st.one_of(st.just(0.0), st.floats(0.0, 0.9))
spike_ranges = st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 900.0)).map(
    lambda r: (r[0], r[0] + r[1]))
channel_faults = st.builds(ChannelFaults, drop_rate=rates, dup_rate=rates,
                           spike_rate=rates, spike_ms=spike_ranges)
stream_plans = st.builds(
    FaultPlan.build,
    default=channel_faults,
    channels=st.dictionaries(
        pairs, st.one_of(st.just(ChannelFaults()), channel_faults),
        max_size=3),
    partitions=st.one_of(
        st.just(()),
        st.builds(lambda site, start, dur: (Partition([site], start,
                                                      start + dur),),
                  site=st.integers(0, N_SITES - 1),
                  start=st.floats(0.0, 400.0), dur=st.floats(1.0, 400.0))),
)


class TestFaultStreamIdentity:
    @given(plan=stream_plans, fault_seed=st.integers(0, 10_000),
           order_seed=st.integers(0, 10_000),
           jitter_ms=st.floats(0.5, 50.0))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_buffered_stream_equals_scalar_draws(
        self, plan, fault_seed, order_seed, jitter_ms
    ):
        reference = ScalarInjector(plan, np.random.default_rng(fault_seed))
        injector = FaultInjector(plan, rng=np.random.default_rng(fault_seed))
        net = Network(Simulator(), N_SITES, faults=injector,
                      collector=MetricsCollector(),
                      retransmit=RetransmitPolicy(jitter_ms=jitter_ms))
        dealt = []
        decide = injector.decide

        def recording_decide(src, dst, now):
            fate = decide(src, dst, now)
            dealt.append(fate)
            return fate

        injector.decide = recording_decide
        order = Random(order_seed)
        now = 0.0
        fates = []
        # decisions (each one physical attempt of a bare ack, which the
        # network books into its collector) and timer jitter interleaved
        # at random, far enough to cross two block boundaries (a jitter
        # draw always draws)
        while reference.draws <= 600:
            src, dst = order.sample(range(N_SITES), 2)
            now += order.uniform(0.0, 2.0)
            if order.random() < 0.25:
                assert (net.transport.jitter(src, dst)
                        == reference.uniform(0.0, jitter_ms))
            else:
                net.sim.run(until=now)
                arrival = net._transmit_raw(src, dst, AckPacket(-1), 0.0)
                fate = reference.decide(src, dst, now)
                assert len(dealt) == len(fates) + 1
                assert dealt[-1] == fate
                assert (arrival is None) == fate.drop
                fates.append(fate)
        assert injector.decisions == len(fates)
        col = net.collector
        assert col.injected_partition_drops == sum(f.severed for f in fates)
        assert col.injected_drops == sum(f.drop for f in fates)
        assert col.injected_dups == sum(f.duplicates for f in fates)
        spikes = [f.extra_delay_ms for f in fates if f.extra_delay_ms]
        assert (col.injected_spikes.count, col.injected_spikes.total) == (
            len(spikes), sum(spikes))
        # and nothing was skipped or drawn twice: the two generators are
        # within one block of each other
        ahead = np.random.default_rng(fault_seed)
        ahead.random(reference.draws)
        unread = injector._doubles[injector._pos:]
        assert unread == ahead.random(len(unread)).tolist()
