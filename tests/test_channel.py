"""The reliable channel, once, over both of its drivers.

Every case runs against the simulator's host (packets through
``Network._transmit_raw``) and the live service's host (frames through
the codec), both with the simulation kernel's timers.  Both drivers ask
the same :class:`FaultInjector` for the fate of each physical
transmission, so one scripted drop / duplicate / delay means the same
thing on either side.  What only one substrate has stays in
``test_reliable.py`` (injector-aware spurious accounting, partition-heal
scheduling, recovery clocks) and ``test_service_channel.py`` (sender
identity, malformed frames).
"""

from collections import Counter, deque

import numpy as np
import pytest

from repro.core.messages import FetchMessage
from repro.core.netpolicy import RTO_BACKOFF, OverloadError, RetransmitPolicy
from repro.metrics.collector import MetricsCollector
from repro.service.channel import ServiceTransport
from repro.sim.engine import Simulator
from repro.sim.faults import FaultDecision, FaultInjector, FaultPlan
from repro.sim.network import ConstantLatency, Network

#: one-way latency of an unfaulted transmission on both drivers
HOP_MS = 10.0

DROP = FaultDecision(True, 0, 0.0, False)
DUPLICATE = FaultDecision(False, 1, 0.0, False)


def delayed(extra_ms):
    return FaultDecision(False, 0, extra_ms, False)


class ScriptedInjector(FaultInjector):
    """A fault injector whose next fates a test can dictate.

    ``cut`` holds physical directions that lose everything; ``script``
    holds per-direction fates consumed one per transmission.  With
    neither, the seeded plan decides as usual.  ``dealt`` tallies the
    faults it handed out, on either driver.
    """

    def __init__(self, plan=None, seed=0):
        super().__init__(plan, rng=np.random.default_rng(seed))
        self.cut = set()
        self.script = {}
        self.dealt = Counter()

    def fates(self, src, dst, *decisions):
        self.script.setdefault((src, dst), deque()).extend(decisions)

    def decide(self, src, dst, now):
        if (src, dst) in self.cut:
            return DROP
        pending = self.script.get((src, dst))
        fate = pending.popleft() if pending else super().decide(src, dst, now)
        self.dealt["drops"] += fate.drop
        self.dealt["duplicates"] += fate.duplicates
        self.dealt["spikes"] += fate.extra_delay_ms > 0
        return fate


def message(ident):
    return FetchMessage(var=0, reader=0, request_id=ident)


class KernelDriver:
    """Time for either host: both run on a simulation kernel, ``sim``."""

    def run(self, ms):
        self.sim.run(until=self.sim.now + ms)

    def settle(self):
        self.sim.run()


class SimDriver(KernelDriver):
    """Channels hosted by the discrete-event kernel's ReliableTransport."""

    def __init__(self, policy=None, *, n=2, injector=None, latency=None,
                 net_seed=1):
        self.sim = Simulator()
        self.injector = injector if injector is not None else ScriptedInjector()
        self.net = Network(self.sim, n, latency or ConstantLatency(HOP_MS),
                           rng=np.random.default_rng(net_seed),
                           faults=self.injector, collector=MetricsCollector(),
                           retransmit=policy)
        self.got = {site: [] for site in range(n)}
        for site in range(n):
            self.net.register(
                site, lambda src, msg, site=site: self.got[site].append((src, msg)))

    @property
    def policy(self):
        return self.net.transport.policy

    def host(self, site):
        return self.net.transport

    def sender(self, src, dst):
        return self.net.transport.channel(src, dst).sender

    def receiver(self, src, dst):
        return self.net.transport.channel(src, dst).receiver

    def send(self, src, dst, ident):
        self.net.send(src, dst, message(ident))

    def link_up(self, src, dst):
        self.net.transport.on_heal(self.sim.now, frozenset({dst}))


class LiveDriver(KernelDriver):
    """Channels hosted by ServiceTransports; frames ride kernel events."""

    def __init__(self, policy=None, *, n=2, injector=None, latency=None):
        self.sim = Simulator()
        self.injector = injector if injector is not None else ScriptedInjector()
        self.latency = latency or (lambda: HOP_MS)
        self.got = {site: [] for site in range(n)}
        self.transports = [
            ServiceTransport(
                site, n, self.sim, self._make_send_frame(site),
                lambda src, msg, site=site: self.got[site].append((src, msg)),
                collector=MetricsCollector(), policy=policy)
            for site in range(n)
        ]

    def _make_send_frame(self, src):
        # the seam carries a frame's bytes, so the injector is told the
        # sending site by the closure, not by parsing it out of the frame
        def send_frame(dst, frame):
            fate = self.injector.decide(src, dst, self.sim.now)
            if fate.drop:
                return
            for _ in range(1 + fate.duplicates):
                self.sim.schedule(
                    self.latency() + fate.extra_delay_ms,
                    lambda: self.transports[dst].on_frame(frame))

        return send_frame

    @property
    def policy(self):
        return self.transports[0].policy

    def host(self, site):
        return self.transports[site]

    def sender(self, src, dst):
        return self.transports[src].channel(dst).sender

    def receiver(self, src, dst):
        return self.transports[dst].channel(src).receiver

    def send(self, src, dst, ident):
        self.transports[src].send(src, dst, message(ident))

    def link_up(self, src, dst):
        self.transports[src].on_link_up(dst)


DRIVERS = [SimDriver, LiveDriver]


def ids(driver, dst):
    return [msg.request_id for _, msg in driver.got[dst]]


@pytest.fixture(params=DRIVERS, ids=["sim", "live"])
def make(request):
    return request.param


QUIET = dict(base_rto_ms=200.0, max_rto_ms=800.0, jitter_ms=0.0)


class TestDelivery:
    def test_in_order_delivery_and_ack(self, make):
        d = make()
        for i in range(5):
            d.send(0, 1, i)
        d.settle()
        assert ids(d, 1) == [0, 1, 2, 3, 4]
        assert d.host(0).unacked_count() == 0  # all acked
        # one ack per data packet, counted once, by the receiving host
        assert d.host(1).collector.acks_sent == 5
        assert d.host(1).collector.ack_bytes > 0

    def test_duplicate_dropped_and_counted(self, make):
        d = make()
        d.injector.fates(0, 1, DUPLICATE)
        d.send(0, 1, 0)
        d.settle()
        assert ids(d, 1) == [0]
        assert d.receiver(0, 1).duplicate_drops == 1
        assert d.host(1).collector.duplicate_drops == 1

    def test_duplicate_of_a_buffered_packet_is_counted(self, make):
        # seq 0 is late, so seq 1 waits in the reorder buffer when its
        # second copy arrives: already received, though not yet delivered
        d = make(RetransmitPolicy(**QUIET))
        d.injector.fates(0, 1, delayed(60.0), DUPLICATE)
        d.send(0, 1, 0)
        d.send(0, 1, 1)
        d.settle()
        assert ids(d, 1) == [0, 1]
        assert d.receiver(0, 1).duplicate_drops == 1

    def test_reordered_packets_reassembled(self, make):
        d = make(RetransmitPolicy(**QUIET))
        d.injector.fates(0, 1, delayed(60.0))
        for i in range(3):
            d.send(0, 1, i)  # arrive 1, 2, 0
        d.settle()
        assert ids(d, 1) == [0, 1, 2]
        assert d.receiver(0, 1).reorder_peak == 2
        assert d.sender(0, 1).retransmissions == 0

    def test_bidirectional_traffic(self, make):
        d = make(injector=ScriptedInjector(FaultPlan.uniform(drop_rate=0.3),
                                           seed=9))
        for k in range(15):
            d.send(0, 1, k)
            d.send(1, 0, 100 + k)
        d.settle()
        assert ids(d, 1) == list(range(15))
        assert ids(d, 0) == [100 + k for k in range(15)]

    @pytest.mark.parametrize("faults, counter", [
        (dict(drop_rate=0.4), "drops"),
        (dict(dup_rate=0.5), "duplicates"),
        (dict(spike_rate=0.5, spike_ms=(20.0, 60.0)), "spikes"),
    ])
    def test_seeded_chaos_is_hidden_from_the_application(
            self, make, faults, counter):
        d = make(RetransmitPolicy(base_rto_ms=50.0, max_rto_ms=800.0,
                                  jitter_ms=5.0),
                 injector=ScriptedInjector(FaultPlan.uniform(**faults), seed=3))
        for k in range(30):
            d.send(0, 1, k)
        d.settle()
        assert ids(d, 1) == list(range(30))
        assert d.injector.dealt[counter] > 0  # the chaos was real
        assert d.host(0).unacked_count() == 0


class TestRetransmission:
    def test_lost_packet_recovered_by_timer(self, make):
        d = make()
        d.injector.fates(0, 1, DROP)
        d.send(0, 1, 0)
        d.run(3 * HOP_MS)
        assert ids(d, 1) == []  # first copy lost
        d.settle()
        assert ids(d, 1) == [0]
        assert d.sender(0, 1).retransmissions == 1
        assert d.host(0).collector.retransmissions == 1
        assert d.host(0).unacked_count() == 0

    def test_rto_backs_off_to_the_cap_while_unacked(self, make):
        d = make()
        policy = d.policy
        d.injector.cut.add((0, 1))
        d.send(0, 1, 0)
        ch = d.sender(0, 1)
        assert ch.rto == policy.base_rto_ms
        d.run(policy.base_rto_ms + policy.jitter_ms + 1)
        assert ch.rto == policy.base_rto_ms * RTO_BACKOFF
        assert ch.consecutive_timeouts == 1
        d.run(60_000.0)
        assert ch.rto == policy.max_rto_ms
        assert ch.unacked  # still trying, never delivered

    def test_timeout_resends_every_unacked_packet(self, make):
        d = make(RetransmitPolicy(heal_burst=2, **QUIET))
        d.injector.cut.add((0, 1))
        for i in range(5):
            d.send(0, 1, i)
        d.run(200.0 + 1)
        assert d.sender(0, 1).retransmissions == 5  # go-back-N, not a burst

    def test_rtt_samples_shrink_rto(self, make):
        policy = RetransmitPolicy(base_rto_ms=200.0, max_rto_ms=800.0,
                                  jitter_ms=5.0, min_rto_ms=10.0)
        d = make(policy)
        for i in range(10):
            d.send(0, 1, i)
        d.settle()
        ch = d.sender(0, 1)
        assert ch.rtt_samples == 10
        assert ch.srtt == pytest.approx(2 * HOP_MS, abs=1.0)
        assert policy.min_rto_ms <= ch.rto < policy.base_rto_ms

    def test_fixed_policy_never_samples(self, make):
        policy = RetransmitPolicy(base_rto_ms=200.0, max_rto_ms=800.0,
                                  jitter_ms=5.0, adaptive=False)
        d = make(policy)
        for i in range(10):
            d.send(0, 1, i)
        d.settle()
        assert d.sender(0, 1).srtt is None
        assert d.sender(0, 1).rto == policy.base_rto_ms

    def test_karn_rule_skips_retransmitted_samples(self, make):
        d = make()
        d.injector.fates(0, 1, DROP)
        d.send(0, 1, 0)
        d.settle()  # the ack answers a retransmitted seq: ambiguous
        assert ids(d, 1) == [0]
        assert d.sender(0, 1).rtt_samples == 0


class TestFlowControl:
    def test_window_bounds_in_flight(self, make):
        d = make(RetransmitPolicy(send_window=4))
        for i in range(20):
            d.send(0, 1, i)
        ch = d.sender(0, 1)
        assert len(ch.unacked) == 4  # window full
        assert len(ch.backlog) == 16  # rest queued
        assert d.host(0).overloaded(0)
        assert d.host(0).backlog_of(0) == 16
        d.settle()
        assert ids(d, 1) == list(range(20))
        assert ch.unacked_peak <= 4
        assert ch.pending == 0
        assert not d.host(0).overloaded(0)

    def test_admission_sheds_once_backlog_reaches_the_cap(self, make):
        d = make(RetransmitPolicy(send_window=2, shed_backlog=3))
        d.injector.cut.add((0, 1))
        for i in range(4):
            d.send(0, 1, i)
        d.host(0).check_overload_admission(0)  # 2 in flight + 2 backlogged
        d.send(0, 1, 4)
        d.host(1).check_overload_admission(1)  # other site: clean
        with pytest.raises(OverloadError) as exc:
            d.host(0).check_overload_admission(0)
        assert (exc.value.site, exc.value.backlog, exc.value.threshold) == (0, 3, 3)
        assert d.host(0).collector.overload_sheds == 1

    def test_zero_cap_disables_shedding(self, make):
        d = make(RetransmitPolicy(send_window=1, shed_backlog=0))
        d.injector.cut.add((0, 1))
        for i in range(10):
            d.send(0, 1, i)
        d.host(0).check_overload_admission(0)

    def test_reorder_overflow_is_bounded_and_recovered(self, make):
        d = make(RetransmitPolicy(reorder_window=2, **QUIET))
        d.injector.fates(0, 1, delayed(60.0))
        for i in range(5):
            d.send(0, 1, i)  # 1 and 2 buffer; 3 and 4 find the buffer full
        d.settle()
        assert ids(d, 1) == [0, 1, 2, 3, 4]
        rx = d.receiver(0, 1)
        assert rx.reorder_overflows == 2
        assert rx.reorder_peak == 2
        assert d.host(1).collector.reorder_overflows == 2
        assert d.sender(0, 1).retransmissions > 0  # the timer re-covered them


class TestCircuitBreaker:
    def test_breaker_trips_probes_then_closes(self, make):
        d = make(RetransmitPolicy(base_rto_ms=50.0, max_rto_ms=200.0,
                                  jitter_ms=0.0, breaker_failures=2,
                                  adaptive=False))
        d.injector.cut.add((0, 1))
        for i in range(4):
            d.send(0, 1, i)
        d.run(1_000.0)
        ch = d.sender(0, 1)
        assert ch.degraded  # breaker open while the path is dead
        assert ch.breaker_trips == 1
        assert d.host(0).collector.breaker_trips == 1
        before = ch.retransmissions
        d.run(200.0)
        assert ch.retransmissions == before + 1  # one probe per timeout
        d.send(0, 1, 4)
        assert len(ch.backlog) == 1  # an open breaker admits nothing new
        d.injector.cut.clear()
        d.settle()
        assert ids(d, 1) == [0, 1, 2, 3, 4]
        assert not ch.degraded  # ack progress closed it
        assert d.host(0).collector.breaker_closes == 1

    def test_breaker_disabled_when_zero(self, make):
        d = make(RetransmitPolicy(base_rto_ms=50.0, max_rto_ms=200.0,
                                  jitter_ms=0.0, breaker_failures=0))
        d.injector.cut.add((0, 1))
        d.send(0, 1, 0)
        d.run(2_000.0)
        assert d.sender(0, 1).breaker_trips == 0
        assert not d.sender(0, 1).degraded


class TestPacedFlush:
    SLOW = dict(base_rto_ms=5_000.0, max_rto_ms=20_000.0, jitter_ms=0.0)

    def test_flush_is_paced_not_a_burst(self, make):
        d = make(RetransmitPolicy(heal_burst=4, **self.SLOW))
        d.injector.cut.add((0, 1))
        for i in range(12):
            d.send(0, 1, i)
        d.run(100.0)
        assert ids(d, 1) == []
        d.injector.cut.clear()
        d.link_up(0, 1)
        d.run(HOP_MS + 1)  # one hop later only the leading burst arrived
        assert ids(d, 1) == [0, 1, 2, 3]
        d.settle()
        assert ids(d, 1) == list(range(12))
        assert d.sender(0, 1).retransmissions == 12  # no timer ever fired

    def test_fewer_than_a_burst_flushes_at_once(self, make):
        d = make(RetransmitPolicy(heal_burst=16, **self.SLOW))
        d.injector.cut.add((0, 1))
        for i in range(4):
            d.send(0, 1, i)
        d.run(100.0)
        d.injector.cut.clear()
        d.link_up(0, 1)
        d.run(HOP_MS + 1)
        assert ids(d, 1) == [0, 1, 2, 3]  # under the burst: no pacing delay


class TestPause:
    def test_no_timer_fires_while_paused(self, make):
        d = make()
        d.injector.cut.add((0, 1))
        d.send(0, 1, 0)
        d.host(0).pause_pair(0, 1)
        d.run(5_000.0)  # many RTOs with the timer parked
        ch = d.sender(0, 1)
        assert ch.retransmissions == 0
        assert ch.unacked  # still owed
        d.host(0).resume_pair(0, 1, flush=False)
        d.run(5_000.0)
        assert ch.retransmissions > 0  # timers burn again after resume

    def test_send_while_paused_queues_behind_the_backlog(self, make):
        # a paused pair with a free window slot must not let a new send
        # into flight ahead of lower-seq backlog: unacked stays in seq order
        d = make(RetransmitPolicy(send_window=2, **QUIET))
        for i in range(3):
            d.send(0, 1, i)  # 0 and 1 in flight, 2 windowed out
        tx = d.sender(0, 1)
        d.host(0).pause_pair(0, 1)
        tx.on_ack(0)  # frees a slot while nothing may be promoted
        d.send(0, 1, 3)
        assert list(tx.unacked) == [1]
        assert [packet.seq for packet in tx.backlog] == [2, 3]
        assert d.host(0).backlog_of(0) == 2
        d.host(0).resume_pair(0, 1)
        assert list(tx.unacked) == [1, 2]
        d.settle()
        assert ids(d, 1) == [0, 1, 2, 3]
        assert tx.pending == 0 and not d.host(0).overloaded(0)

    def test_send_while_paused_queues_until_resume(self, make):
        d = make()
        d.host(0).pause_pair(0, 1)
        for i in range(3):
            d.send(0, 1, i)
        d.run(1_000.0)
        assert ids(d, 1) == []
        d.host(0).resume_pair(0, 1)
        d.settle()
        assert ids(d, 1) == [0, 1, 2]
