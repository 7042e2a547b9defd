"""Tests for the interactive CausalCluster facade."""

import pytest

from repro import CausalCluster, ConstantLatency
from repro.memory.store import BOTTOM


def make(protocol="opt-track", n=4, **kw):
    kw.setdefault("latency", ConstantLatency(10.0))
    kw.setdefault("n_vars", 8)
    return CausalCluster(n, protocol=protocol, **kw)


class TestBasics:
    def test_write_then_settle_then_read_everywhere(self):
        c = make(protocol="optp")
        c.write(0, var=3, value=42)
        c.settle()
        for site in range(4):
            assert c.read(site, 3) == 42

    def test_initial_reads_are_bottom(self):
        c = make(protocol="opt-track-crp")
        for site in range(4):
            assert c.read(site, 0) is BOTTOM

    def test_read_your_own_write_immediately(self):
        for protocol in ("optp", "opt-track-crp", "full-track", "opt-track"):
            c = make(protocol=protocol, n=3)
            # pick a variable the writer replicates so the read is local
            var = c.placement.vars_at(0)[0]
            c.write(0, var, "mine")
            assert c.read(0, var) == "mine"

    def test_remote_read_drives_simulator(self):
        c = make(protocol="opt-track", n=5, replication_factor=2)
        # find a variable site 4 does NOT replicate
        var = next(v for v in range(8) if not c.placement.is_replicated_at(v, 4))
        writer = c.placement.replicas(var)[0]
        c.write(writer, var, "remote-value")
        c.settle()
        t0 = c.now
        assert c.read(4, var) == "remote-value"
        assert c.now > t0  # the fetch round trip took simulated time

    def test_read_with_id(self):
        c = make(protocol="optp")
        wid = c.write(2, 1, "x")
        c.settle()
        value, rid = c.read_with_id(0, 1)
        assert value == "x" and rid == wid

    def test_advance_partial_delivery(self):
        c = make(protocol="optp", latency=ConstantLatency(50.0))
        c.write(0, 0, 1)
        assert c.pending_messages() == 0  # not yet delivered, so not pending
        c.advance(10.0)
        assert c.read(1, 0) is BOTTOM  # not yet delivered
        c.advance(100.0)
        assert c.read(1, 0) == 1

    def test_check_passes_for_real_run(self):
        c = make(protocol="full-track", n=4)
        for k in range(10):
            c.write(k % 4, k % 8, k)
            c.advance(5.0)
        c.settle()
        for site in range(4):
            for var in c.placement.vars_at(site)[:2]:
                c.read(site, var)
        report = c.check()
        assert report.ok

    def test_site_range_validated(self):
        c = make()
        with pytest.raises(ValueError):
            c.write(9, 0, 1)
        with pytest.raises(ValueError):
            c.read(-1, 0)

    def test_fault_plan_parts_only_the_runner_schedules_are_refused(self):
        # the cluster used to forward plan.crashes and silently ignore
        # plan.membership / plan.overloads: a quiet run, epoch 0, 0 writes
        from repro.sim.faults import FaultPlan, OverloadEvent, seeded_churn

        churn = seeded_churn(4, n_joins=1, n_leaves=1, window_ms=(50, 400),
                             seed=0)
        crowd = (OverloadEvent([0, 1], 10, 500, 25),)
        for plan in (FaultPlan.build(membership=churn),
                     FaultPlan.build(overloads=crowd),
                     FaultPlan.build(membership=churn, overloads=crowd)):
            with pytest.raises(ValueError, match=r"join_site\(\).*write\(\)"):
                CausalCluster(4, fault_plan=plan)
        # what the cluster does schedule is still accepted
        CausalCluster(4, fault_plan=FaultPlan.build())

    def test_fault_stream_matches_run_simulation(self, monkeypatch):
        # the same plan and fault_seed must give the same per-packet
        # drop / dup / spike decisions through either entry point
        import copy

        from repro import SimulationConfig, run_simulation
        from repro.sim.faults import ChannelFaults, FaultInjector, FaultPlan

        built = []
        init = FaultInjector.__init__

        def keep_a_copy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(copy.deepcopy(self))  # before any packet draws

        monkeypatch.setattr(FaultInjector, "__init__", keep_a_copy)
        plan = FaultPlan.build(default=ChannelFaults(
            drop_rate=0.1, dup_rate=0.1, spike_rate=0.1, spike_ms=(5.0, 50.0)))
        run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=4, n_vars=8, ops_per_process=5,
            seed=3, fault_plan=plan, fault_seed=11))
        make(seed=3, fault_plan=plan, fault_seed=11)
        ran, cluster = (
            [injector.decide(k % 4, (k + 1) % 4, 0.0) for k in range(500)]
            for injector in built)
        assert ran == cluster
        assert any(d.drop for d in ran)
        assert any(d.duplicates for d in ran)
        assert any(d.extra_delay_ms for d in ran)

    def test_check_requires_history(self):
        c = make(record_history=False)
        with pytest.raises(RuntimeError):
            c.check()

    def test_repr_mentions_protocol(self):
        assert "OptTrackProtocol" in repr(make(protocol="opt-track"))


class TestCausalLitmus:
    """Classic causal-consistency litmus scenarios, all four protocols."""

    @pytest.mark.parametrize("protocol", ["full-track", "opt-track", "opt-track-crp", "optp"])
    def test_causal_write_read_write_chain(self, protocol):
        kw = {"replication_factor": 2} if protocol in ("full-track", "opt-track") else {}
        c = make(protocol=protocol, n=4, **kw)
        # site 0 writes x; site 1 reads x then writes y; any site reading
        # the new y and then x must not see bottom
        x = c.placement.vars_at(0)[0]
        c.write(0, x, "first")
        c.settle()
        assert c.read(1, x) == "first"
        y = next(v for v in c.placement.vars_at(1) if v != x)
        c.write(1, y, "second")
        c.settle()
        for site in range(4):
            assert c.read(site, y) == "second"
            assert c.read(site, x) == "first"
        c.check().raise_if_violated()

    @pytest.mark.parametrize("protocol", ["full-track", "opt-track", "opt-track-crp", "optp"])
    def test_writes_by_one_site_seen_in_order(self, protocol):
        kw = {"replication_factor": 2} if protocol in ("full-track", "opt-track") else {}
        c = make(protocol=protocol, n=3, **kw)
        var = c.placement.vars_at(0)[0]
        for k in range(5):
            c.write(0, var, k)
            c.advance(3.0)
        c.settle()
        reader = c.placement.replicas(var)[-1]
        assert c.read(reader, var) == 4
        c.check().raise_if_violated()

    def test_overwritten_value_invisible_after_seen(self):
        c = make(protocol="optp", n=3)
        c.write(0, 2, "old")
        c.settle()
        c.write(0, 2, "new")
        c.settle()
        assert c.read(1, 2) == "new"
        assert c.read(1, 2) == "new"  # monotone
        c.check().raise_if_violated()
