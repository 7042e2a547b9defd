"""Unit tests for the application-subsystem Site driver."""

import pytest

from repro import ConstantLatency, SimulationConfig, run_simulation
from repro.core.base import ProtocolContext, create_protocol
from repro.memory.replication import RoundRobinPlacement
from repro.memory.store import SiteStore
from repro.metrics.collector import MetricsCollector
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.faults import CrashEvent, FaultPlan
from repro.sim.network import Network
from repro.sim.process import Site
from repro.workload.schedule import Operation, OpKind, SiteSchedule


def build_site(schedule_items, n=2, protocol="optp", on_operation=None):
    sim = Simulator()
    net = Network(sim, n, ConstantLatency(5.0), collector=MetricsCollector())
    placement = RoundRobinPlacement(n, 4, n)
    protocols = []
    for i in range(n):
        ctx = ProtocolContext(
            site=i, n_sites=n, placement=placement,
            store=SiteStore(i, placement.vars_at(i)),
            network=net, clock=sim, collector=MetricsCollector(),
        )
        proto = create_protocol(protocol, ctx)
        net.register(i, proto.on_message)
        protocols.append(proto)
    sched = SiteSchedule(0, tuple(schedule_items))
    site = Site(protocols[0], sched, sim, on_operation=on_operation)
    return sim, site, protocols


class TestSiteExecution:
    def test_runs_all_operations(self):
        items = [
            (10.0, Operation(OpKind.WRITE, 0, 1)),
            (20.0, Operation(OpKind.READ, 0)),
            (30.0, Operation(OpKind.WRITE, 1, 2)),
        ]
        sim, site, _ = build_site(items)
        site.start()
        sim.run()
        assert site.finished
        assert site.completed_ops == 3

    def test_operations_fire_at_planned_times(self):
        seen = []
        items = [
            (10.0, Operation(OpKind.WRITE, 0, 1)),
            (25.0, Operation(OpKind.WRITE, 0, 2)),
        ]
        sim, site, _ = build_site(
            items, on_operation=lambda s: seen.append(sim.now)
        )
        site.start()
        sim.run()
        assert seen == [10.0, 25.0]

    def test_empty_schedule_is_finished_immediately(self):
        sim, site, _ = build_site([])
        assert site.finished
        site.start()
        sim.run()
        assert site.completed_ops == 0

    def test_double_start_rejected(self):
        sim, site, _ = build_site([(1.0, Operation(OpKind.READ, 0))])
        site.start()
        with pytest.raises(RuntimeError):
            site.start()

    def test_mismatched_protocol_site_rejected(self):
        sim, site, protocols = build_site([])
        bad_sched = SiteSchedule(1, ())
        with pytest.raises(ValueError):
            Site(protocols[0], bad_sched, sim)

    def test_on_operation_counts(self):
        count = [0]
        items = [(float(k + 1), Operation(OpKind.READ, 0)) for k in range(7)]
        sim, site, _ = build_site(items, on_operation=lambda s: count.__setitem__(0, count[0] + 1))
        site.start()
        sim.run()
        assert count[0] == 7


class TestBlockingRemoteReads:
    def test_remote_read_delays_subsequent_ops(self):
        # site 0 does not replicate var; a remote read takes a round trip
        # (2 x 5 ms) and the next op must wait for it
        sim = Simulator()
        net = Network(sim, 2, ConstantLatency(5.0), collector=MetricsCollector())
        placement = RoundRobinPlacement(2, 2, 1)  # var v at site v only
        protocols = []
        from repro.metrics.collector import MetricsCollector as MC

        for i in range(2):
            ctx = ProtocolContext(
                site=i, n_sites=2, placement=placement,
                store=SiteStore(i, placement.vars_at(i)),
                network=net, clock=sim, collector=MC(),
            )
            proto = create_protocol("opt-track", ctx)
            net.register(i, proto.on_message)
            protocols.append(proto)
        times = []
        sched = SiteSchedule(0, (
            (10.0, Operation(OpKind.READ, 1)),     # remote: var 1 at site 1
            (11.0, Operation(OpKind.READ, 0)),     # local, but must wait
        ))
        site = Site(protocols[0], sched, sim,
                    on_operation=lambda s: times.append(sim.now))
        site.start()
        sim.run()
        assert site.finished
        assert times[0] == 10.0
        assert times[1] == pytest.approx(20.0)  # 10 + RTT, not 11

    def test_runner_reports_fetch_rtt(self):
        cfg = SimulationConfig(protocol="opt-track", n_sites=4, n_vars=8,
                               replication_factor=1, write_rate=0.2,
                               ops_per_process=30, seed=0,
                               latency=ConstantLatency(10.0),
                               warmup_fraction=0.0)
        result = run_simulation(cfg)
        rtts = result.collector.fetch_rtts
        assert rtts.count > 0
        assert rtts.minimum >= 20.0  # at least one round trip


class TestRunsFromColumns:
    """The simulator steps through a schedule's columns: no run builds
    the ``items`` view, traced or not, through crash recovery."""

    PLANS = {
        "plain": None,
        "crash-recover": FaultPlan.build(crashes=(CrashEvent(2, 600.0, 1500.0),)),
    }

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("plan", PLANS)
    def test_no_run_reads_items(self, plan, traced, monkeypatch):
        def refuse(self):
            raise AssertionError("a run read SiteSchedule.items")

        monkeypatch.setattr(SiteSchedule, "items", property(refuse))
        result = run_simulation(
            SimulationConfig(protocol="opt-track", n_sites=5, n_vars=12,
                             replication_factor=3, ops_per_process=40,
                             gap_range_ms=(5.0, 55.0), seed=7,
                             fault_plan=self.PLANS[plan], fault_seed=3),
            tracer=Tracer() if traced else None)
        done = result.collector.ops_write + result.collector.ops_read
        assert done > 150
