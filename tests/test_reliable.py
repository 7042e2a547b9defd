"""The fault injector, the retransmit policy, and what only the simulator's
channel host has: injector-aware spurious accounting, partition-heal
scheduling, recovery clocks, collector/registry export.  Channel
behaviour itself is in ``test_channel.py``, over both drivers."""

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.faults import (
    ChannelFaults,
    FaultInjector,
    FaultPlan,
    Partition,
)
from repro.sim.network import ConstantLatency, Network
from repro.sim.reliable import ACK_SIZE_BYTES, RetransmitPolicy

FAST = RetransmitPolicy(base_rto_ms=50.0, max_rto_ms=800.0, jitter_ms=5.0)


def make_net(n=2, drop=0.0, dup=0.0, spike=0.0, partitions=(), seed=0,
             latency=None, collector=None, policy=None):
    sim = Simulator()
    plan = FaultPlan.uniform(drop_rate=drop, dup_rate=dup, spike_rate=spike,
                             partitions=partitions)
    injector = FaultInjector(plan, rng=np.random.default_rng(seed))
    net = Network(sim, n, latency or ConstantLatency(10.0),
                  rng=np.random.default_rng(1), faults=injector,
                  collector=collector if collector is not None
                  else MetricsCollector(),
                  retransmit=policy or FAST)
    return sim, net, injector


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop_rate=1.0)
        with pytest.raises(ValueError):
            ChannelFaults(dup_rate=-0.1)
        with pytest.raises(ValueError):
            ChannelFaults(spike_ms=(100.0, 50.0))

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            Partition([], 0.0, 10.0)
        with pytest.raises(ValueError):
            Partition([0], 10.0, 5.0)

    def test_partition_severs_both_directions_only_in_window(self):
        p = Partition([0], 100.0, 200.0)
        assert not p.severs(0, 1, 50.0)
        assert p.severs(0, 1, 100.0)
        assert p.severs(1, 0, 150.0)
        assert not p.severs(0, 1, 200.0)  # healed
        assert not p.severs(1, 2, 150.0)  # both outside the group

    def test_plan_is_hashable(self):
        plan = FaultPlan.build(
            default=ChannelFaults(drop_rate=0.1),
            channels={(0, 1): ChannelFaults(dup_rate=0.2)},
            partitions=(Partition([0], 0.0, 10.0),),
        )
        hash(plan)  # usable inside frozen SimulationConfig
        assert plan.faults_for(0, 1).dup_rate == 0.2
        assert plan.faults_for(1, 0).drop_rate == 0.1
        assert plan.heal_times() == [10.0]

    def test_injector_deterministic_per_seed(self):
        def decisions(seed):
            inj = FaultInjector(FaultPlan.uniform(drop_rate=0.4, dup_rate=0.3),
                                rng=np.random.default_rng(seed))
            return [inj.decide(0, 1, 0.0) for _ in range(200)]

        assert decisions(5) == decisions(5)
        assert decisions(5) != decisions(6)

    def test_quiet_plan_draws_nothing(self):
        inj = FaultInjector(FaultPlan())
        before = inj.rng.bit_generator.state["state"]["state"]
        for _ in range(50):
            d = inj.decide(0, 1, 0.0)
            assert not d.drop and d.duplicates == 0 and d.extra_delay_ms == 0.0
        assert inj.rng.bit_generator.state["state"]["state"] == before

    def test_dynamic_partitions(self):
        inj = FaultInjector(FaultPlan())
        assert not inj.severed(0, 1, 5.0)
        inj.start_partition({1}, 5.0)
        assert inj.severed(0, 1, 5.0) and inj.severed(1, 0, 6.0)
        assert inj.unhealed_partitions(6.0) == [frozenset({1})]
        healed = inj.heal_partitions(9.0)
        assert healed == [frozenset({1})]
        assert not inj.severed(0, 1, 9.0)
        assert inj.unhealed_partitions(9.0) == []


class TestReliableDelivery:
    def test_partition_blocks_then_heals(self):
        sim, net, inj = make_net(partitions=(Partition([1], 0.0, 500.0),))
        got = []
        net.register(1, lambda s, m: got.append(m))
        net.register(0, lambda s, m: None)
        for k in range(5):
            net.send(0, 1, k)
        sim.run(until=499.0)
        assert got == []  # everything severed
        assert net.collector.injected_partition_drops > 0
        sim.run()
        assert got == list(range(5))  # heal triggers eager retransmission

    def test_recovery_latency_recorded_per_site(self):
        col = MetricsCollector()
        sim, net, _ = make_net(partitions=(Partition([1], 0.0, 300.0),),
                               collector=col)
        net.register(1, lambda s, m: None)
        net.register(0, lambda s, m: None)
        for k in range(4):
            net.send(0, 1, k)
        sim.run()
        assert col.recovery_latency.count == 1
        assert 1 in col.recovery_by_site
        # backlog drained one constant-latency hop after the heal
        assert col.recovery_latency.mean == pytest.approx(10.0 + 10.0, abs=5.0)

    def test_ack_overhead_accounted(self):
        col = MetricsCollector()
        sim, net, _ = make_net(collector=col)
        net.register(1, lambda s, m: None)
        net.register(0, lambda s, m: None)
        for k in range(7):
            net.send(0, 1, k)
        sim.run()
        assert col.acks_sent == 7
        assert col.ack_bytes == 7 * ACK_SIZE_BYTES


class TestRetransmitPolicyValidation:
    def test_rto_bounds(self):
        with pytest.raises(ValueError, match="base_rto_ms"):
            RetransmitPolicy(base_rto_ms=0.0)
        with pytest.raises(ValueError, match="base_rto_ms"):
            RetransmitPolicy(base_rto_ms=500.0, max_rto_ms=100.0)
        with pytest.raises(ValueError, match="min_rto_ms"):
            RetransmitPolicy(min_rto_ms=0.0)
        with pytest.raises(ValueError, match="min_rto_ms"):
            RetransmitPolicy(min_rto_ms=9000.0, max_rto_ms=8000.0)

    def test_backoff_and_jitter(self):
        with pytest.raises(ValueError, match="backoff"):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetransmitPolicy(jitter_ms=-1.0)

    def test_window_and_overload_knobs(self):
        with pytest.raises(ValueError, match="send_window"):
            RetransmitPolicy(send_window=0)
        with pytest.raises(ValueError, match="reorder_window"):
            RetransmitPolicy(reorder_window=0)
        with pytest.raises(ValueError, match="heal_burst"):
            RetransmitPolicy(heal_burst=0)
        with pytest.raises(ValueError, match="breaker_failures"):
            RetransmitPolicy(breaker_failures=-1)
        with pytest.raises(ValueError, match="backpressure_delay_ms"):
            RetransmitPolicy(backpressure_delay_ms=0.0)
        with pytest.raises(ValueError, match="backpressure_limit"):
            RetransmitPolicy(backpressure_limit=0)
        with pytest.raises(ValueError, match="shed_backlog"):
            RetransmitPolicy(shed_backlog=-1)

    def test_defaults_are_valid(self):
        RetransmitPolicy()  # must not raise


class TestSpuriousAccounting:
    def test_spurious_retransmissions_detected(self):
        # no drops: every timer firing is premature by construction
        pol = RetransmitPolicy(base_rto_ms=5.0, max_rto_ms=800.0,
                               jitter_ms=1.0, adaptive=False)
        sim, net, _ = make_net(policy=pol)
        got = []
        net.register(1, lambda s, m: got.append(m))
        net.register(0, lambda s, m: None)
        for k in range(5):
            net.send(0, 1, k)
        sim.run()
        assert got == list(range(5))
        # the host counts every channel event into the network's collector
        col = net.transport.collector
        assert col is net.collector
        assert col.retransmissions > 0
        assert col.spurious_retransmissions == col.retransmissions
        assert col.duplicate_drops > 0


class TestChannelMetricsExport:
    def test_gauges_and_counters_sampled(self):
        from repro.obs.metrics import MetricsRegistry

        sim, net, _ = make_net(drop=0.4, seed=3)
        net.register(1, lambda s, m: None)
        net.register(0, lambda s, m: None)
        for k in range(30):
            net.send(0, 1, k)
        sim.run()
        registry = MetricsRegistry()
        net.transport.sample_channel_metrics(registry)
        fam = registry.get("net_channel_rto_ms")
        assert fam is not None
        labels = [dict(zip(fam.label_names, key)) for key, _ in fam.samples()]
        assert {"src": "0", "dst": "1"} in labels
        retx = registry.get("net_channel_retransmissions_total")
        assert retx is not None
        assert sum(c.value for _, c in retx.samples()) > 0
