"""Chaos suite: all four protocols stay correct when the network misbehaves.

The paper's correctness argument assumes reliable FIFO channels (TCP).
These tests drop, duplicate, delay, and partition the physical substrate
and assert the reliable ack/retransmit layer restores exactly the
channel guarantees the protocols need: every run still passes the
causal-consistency checker and the convergence checker, with zero
application-level losses or duplicate applies.

Also pinned here: the determinism contract (same ``fault_seed`` ⇒
bit-identical fault schedule and metrics) and the zero-overhead contract
(``fault_plan=None`` keeps the seed's reliable path untouched).
"""

import pytest

from repro import (
    CausalCluster,
    ChannelFaults,
    ConstantLatency,
    FaultPlan,
    Partition,
    RetransmitPolicy,
    SimulationConfig,
    UniformLatency,
    run_simulation,
)
from repro.verify.causal_checker import check_causal_consistency
from repro.verify.convergence import check_convergence
from repro.verify.history import EventKind

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp"]

#: small retransmission timeout keeps chaos runs fast under simulated time
FAST_RETX = RetransmitPolicy(base_rto_ms=120.0, max_rto_ms=2000.0, jitter_ms=10.0)

PLANS = {
    "drop-0.3": FaultPlan.uniform(drop_rate=0.3),
    "dup-0.3": FaultPlan.uniform(dup_rate=0.3),
    "spikes": FaultPlan.uniform(spike_rate=0.2, spike_ms=(50.0, 400.0)),
    "drop+dup": FaultPlan.uniform(drop_rate=0.2, dup_rate=0.2),
    "partition-heal": FaultPlan.uniform(
        drop_rate=0.1,
        partitions=(Partition([0, 1], 400.0, 2500.0),),
    ),
}


def chaos_run(protocol, plan, *, seed=1, fault_seed=7, ops=30, n=5):
    cfg = SimulationConfig(
        protocol=protocol, n_sites=n, n_vars=10, ops_per_process=ops,
        seed=seed, record_history=True, latency=UniformLatency(5.0, 60.0),
        fault_plan=plan, fault_seed=fault_seed, retransmit=FAST_RETX,
    )
    return run_simulation(cfg)


def assert_exactly_once(result):
    """No application-level loss and no duplicate applies.

    Every write must be applied exactly once at every replica of its
    variable (the writer records its own local apply too).
    """
    applies = {}
    for ev in result.history.of_kind(EventKind.APPLY):
        key = (ev.site, ev.write_id)
        applies[key] = applies.get(key, 0) + 1
    dup = {k: c for k, c in applies.items() if c > 1}
    assert not dup, f"duplicate applies leaked above the transport: {dup}"
    for w in result.history.writes():
        replicas = set(result.placement.replicas(w.var))
        applied_at = {site for (site, wid) in applies if wid == w.write_id}
        assert applied_at == replicas, (
            f"write {w.write_id} applied at {sorted(applied_at)}, "
            f"expected replicas {sorted(replicas)}"
        )


class TestChaosSuite:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_protocols_survive_every_fault_plan(self, protocol, plan_name):
        result = chaos_run(protocol, PLANS[plan_name])
        check_causal_consistency(result.history, result.placement).raise_if_violated()
        conv = check_convergence(result.protocols, result.history)
        assert conv.ok, conv.illegitimate
        assert_exactly_once(result)

    def test_chaos_actually_happened(self):
        result = chaos_run("opt-track", PLANS["drop+dup"])
        col = result.collector
        assert col.injected_drops > 0
        assert col.injected_dups > 0
        assert col.retransmissions > 0
        assert col.duplicate_drops > 0
        assert col.acks_sent > 0 and col.ack_bytes > 0

    def test_partition_recovery_latency_recorded(self):
        result = chaos_run("optp", PLANS["partition-heal"])
        col = result.collector
        assert col.injected_partition_drops > 0
        assert col.recovery_latency.count >= 1
        assert col.recovery_latency.mean > 0
        # the cut-off sites are the recovering ones
        assert set(col.recovery_by_site) <= set(range(5))

    def test_per_channel_fault_overrides(self):
        plan = FaultPlan.build(
            default=ChannelFaults(),
            channels={(0, 1): ChannelFaults(drop_rate=0.5)},
        )
        result = chaos_run("optp", plan)
        col = result.collector
        assert col.injected_drops > 0
        assert col.retransmissions > 0
        check_causal_consistency(result.history, result.placement).raise_if_violated()


class TestDeterminism:
    def test_same_fault_seed_bit_identical(self):
        a = chaos_run("opt-track", PLANS["drop+dup"], fault_seed=3)
        b = chaos_run("opt-track", PLANS["drop+dup"], fault_seed=3)
        assert a.summary() == b.summary()
        assert a.sim_time_ms == b.sim_time_ms
        assert a.total_sim_events == b.total_sim_events

    def test_different_fault_seed_differs(self):
        a = chaos_run("opt-track", PLANS["drop+dup"], fault_seed=3)
        b = chaos_run("opt-track", PLANS["drop+dup"], fault_seed=4)
        assert a.summary() != b.summary()

    def test_fault_stream_independent_of_latency_model(self):
        """Same fault seed ⇒ same injected-fault schedule even when the
        latency model (and hence the network RNG draws) changes."""
        plan = FaultPlan.uniform(drop_rate=0.25)
        a = chaos_run("optp", plan, ops=20)
        cfg = SimulationConfig(
            protocol="optp", n_sites=5, n_vars=10, ops_per_process=20,
            seed=1, latency=ConstantLatency(20.0),
            fault_plan=plan, fault_seed=7, retransmit=FAST_RETX,
        )
        b = run_simulation(cfg)
        # not bit-identical runs (latencies differ), but the fault
        # decisions for the same number of draws come from the same
        # stream: the drop *rate* realized must match closely
        ra = a.collector.injected_drops / a.protocols[0].ctx.network.faults.decisions
        rb = b.collector.injected_drops / b.protocols[0].ctx.network.faults.decisions
        assert abs(ra - rb) < 0.05


class TestZeroOverhead:
    def test_no_plan_means_no_transport(self):
        result = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=4, n_vars=8, ops_per_process=20, seed=0,
        ))
        net = result.protocols[0].ctx.network
        assert net.transport is None and net.faults is None
        col = result.collector
        assert col.retransmissions == 0 and col.acks_sent == 0
        assert col.injected_drops == 0 and col.duplicate_drops == 0

    def test_empty_plan_keeps_app_level_counts(self):
        """The reliable layer is transparent: same workload ⇒ identical
        SM/FM/RM counts whether or not the chaos stack is interposed."""
        base = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=5, n_vars=10, ops_per_process=25, seed=2,
        )).summary()
        wrapped = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=5, n_vars=10, ops_per_process=25, seed=2,
            fault_plan=FaultPlan(), retransmit=FAST_RETX,
        )).summary()
        for key in ("SM_count", "FM_count", "RM_count",
                    "ops_write", "ops_read", "ops_read_remote"):
            assert base[key] == wrapped[key], key


class TestClusterPartitionHelpers:
    def make(self, protocol="optp", **kw):
        kw.setdefault("latency", ConstantLatency(10.0))
        kw.setdefault("fault_plan", FaultPlan())
        kw.setdefault("retransmit", FAST_RETX)
        return CausalCluster(4, protocol=protocol, n_vars=8, **kw)

    def test_partition_requires_chaos_transport(self):
        c = CausalCluster(3, protocol="optp", n_vars=4)
        with pytest.raises(RuntimeError, match="fault_plan"):
            c.partition({0})

    def test_partition_heal_cycle_stays_causal(self):
        c = self.make()
        c.write(0, 0, "before")
        c.advance(100.0)
        c.partition({3})
        c.write(0, 1, "during")
        c.advance(300.0)
        # the severed site missed the update
        from repro.memory.store import BOTTOM
        assert c.protocols[3].ctx.store.read(1).value is BOTTOM
        c.heal()
        c.settle()
        assert c.read(3, 1) == "during"
        c.check().raise_if_violated()
        assert c.collector.recovery_latency.count >= 1
        assert 3 in c.collector.recovery_by_site

    def test_settle_refuses_while_partitioned(self):
        c = self.make()
        c.partition({1})
        c.write(0, 0, "x")
        c.advance(200.0)  # first attempt + retransmissions all severed
        with pytest.raises(RuntimeError, match="heal"):
            c.settle()
        c.heal()
        c.settle()
        c.check().raise_if_violated()

    def test_pause_and_chaos_compose(self):
        """A paused (stalled) process behind a lossy network: acks still
        flow (the transport is the NIC, not the process), deliveries are
        held, and resume + settle drains everything exactly once."""
        c = self.make(fault_plan=FaultPlan.uniform(drop_rate=0.2))
        c.pause_site(2)
        for k in range(6):
            c.write(k % 2, k % 8, k)
            c.advance(50.0)
        c.resume_site(2)
        c.settle()
        assert c.pending_messages() == 0
        c.check().raise_if_violated()

    def test_pending_messages_counts_held(self):
        c = CausalCluster(3, protocol="optp", n_vars=4,
                          latency=ConstantLatency(5.0))
        c.pause_site(1)
        c.write(0, 0, "x")
        c.advance(50.0)
        assert c.network.held_count(1) == 1
        assert c.pending_messages() == 1
        c.resume_site(1)
        c.advance(1.0)
        assert c.pending_messages() == 0
