"""Crash–recovery suite: protocols survive seeded crash plans.

The acceptance bar for the subsystem: under any seeded crash plan every
protocol finishes the standard workload with zero causal violations and
full convergence; crash-recovery runs additionally preserve the
exactly-once apply contract (the WAL replay must not re-emit or
re-record anything).  Crash-stop runs instead account every
never-completable operation as lost.

``REPRO_FAULT_SEED`` parameterizes the fault randomness so the CI chaos
matrix can sweep seeds without touching the test code.
"""

import os

import pytest

from repro import (
    AdversarialLatency,
    CausalCluster,
    ChannelFaults,
    ConstantLatency,
    CrashEvent,
    FaultPlan,
    Partition,
    RetransmitPolicy,
    RoundRobinPlacement,
    SimulationConfig,
    UniformLatency,
    run_simulation,
    seeded_crashes,
)
from repro.cli import _parse_crash_plan
from repro.core.recovery import SyncResponse, build_digest, caught_up
from repro.verify.causal_checker import check_causal_consistency
from repro.verify.convergence import check_convergence
from repro.verify.history import EventKind

from .test_chaos import assert_exactly_once

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp"]
FAST_RETX = RetransmitPolicy(base_rto_ms=120.0, max_rto_ms=2000.0, jitter_ms=10.0)

#: swept by the CI chaos matrix (defaults to the deterministic local run)
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

PLANS = {
    "single-recovery": FaultPlan.build(
        crashes=(CrashEvent(2, 600.0, 1500.0),),
    ),
    "double-recovery": FaultPlan.build(
        crashes=(CrashEvent(1, 400.0, 1200.0), CrashEvent(3, 1600.0, 2400.0)),
    ),
    "chaos+crash": FaultPlan.build(
        default=ChannelFaults(drop_rate=0.05),
        crashes=(CrashEvent(0, 800.0, 1900.0),),
    ),
    "seeded": FaultPlan.build(
        crashes=seeded_crashes(5, n_crashes=2, seed=FAULT_SEED),
    ),
}


def crash_run(protocol, plan, *, seed=1, ops=25, n=5, **kw):
    cfg = SimulationConfig(
        protocol=protocol, n_sites=n, n_vars=10, ops_per_process=ops,
        seed=seed, record_history=True, latency=UniformLatency(5.0, 60.0),
        fault_plan=plan, fault_seed=FAULT_SEED, retransmit=FAST_RETX,
        **kw,
    )
    return run_simulation(cfg)


class TestCrashRecoveryMatrix:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_protocols_survive_every_crash_plan(self, protocol, plan_name):
        result = crash_run(protocol, PLANS[plan_name])
        col = result.collector
        assert col.crashes == len(PLANS[plan_name].crashes)
        assert col.downtime.count == col.crashes  # every victim came back
        check_causal_consistency(result.history, result.placement).raise_if_violated()
        conv = check_convergence(result.protocols, result.history)
        assert conv.ok, conv.illegitimate
        assert_exactly_once(result)
        assert col.lost_ops == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_recovery_machinery_engaged(self, protocol):
        result = crash_run(protocol, PLANS["single-recovery"])
        col = result.collector
        assert col.checkpoints_taken > 0
        assert col.wal_replays.count == 1
        assert result.crash_manager.detector.heartbeats_sent > 0
        assert col.sync_messages > 0
        assert col.detection_latency.count == 1
        assert col.catchup_latency.count == 1


    def test_a_reissued_read_is_counted_once(self):
        """A remote read a crash interrupts is re-issued under its
        op_index after recovery; the collector counts it at its first
        issue only, so the counts match the history's READ_OPs."""
        plan = FaultPlan.build(crashes=(
            CrashEvent(1, 600.0, 1500.0),
            CrashEvent(3, 2500.0, 3400.0),
            CrashEvent(4, 5000.0, 5900.0),
        ))
        result = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=6, ops_per_process=60,
            write_rate=0.3, latency=AdversarialLatency(), seed=0,
            fault_plan=plan, record_history=True,
        ))
        col = result.collector
        assert col.crashes == 3
        reads = [e for e in result.history.events
                 if e.kind is EventKind.READ_OP]
        assert col.ops_read == len(reads) == 248
        assert col.ops_read_remote == sum(
            1 for e in reads if e.detail == "remote")


class TestCrashStop:
    def test_lost_operations_accounted(self):
        """A site that never returns strands its own remaining schedule
        (and any live site blocked on a fetch into it)."""
        plan = FaultPlan.build(crashes=(CrashEvent(2, 500.0),))
        result = crash_run("opt-track", plan)
        col = result.collector
        assert col.crashes == 1
        assert col.downtime.count == 0  # nobody recovered
        assert col.lost_ops > 0
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    def test_mixed_stop_and_recovery(self):
        plan = FaultPlan.build(
            crashes=(CrashEvent(0, 600.0), CrashEvent(2, 1100.0, 2200.0)),
        )
        result = crash_run("optp", plan)
        col = result.collector
        assert col.crashes == 2
        assert col.downtime.count == 1  # only site 2 came back
        assert col.lost_ops > 0
        check_causal_consistency(result.history, result.placement).raise_if_violated()


class TestDeterminism:
    def test_same_seeds_bit_identical(self):
        a = crash_run("opt-track-crp", PLANS["chaos+crash"])
        b = crash_run("opt-track-crp", PLANS["chaos+crash"])
        assert a.summary() == b.summary()
        assert a.sim_time_ms == b.sim_time_ms


class TestSeededCrashes:
    def test_distinct_victims_within_window(self):
        events = seeded_crashes(8, n_crashes=3, window_ms=(200.0, 900.0),
                                downtime_ms=(100.0, 400.0), seed=5)
        assert len(events) == 3
        assert len({e.site for e in events}) == 3
        for e in events:
            assert 200.0 <= e.at_ms <= 900.0
            assert 100.0 <= e.recover_ms - e.at_ms <= 400.0

    def test_crash_stop_mode(self):
        events = seeded_crashes(4, n_crashes=2, crash_stop=True, seed=1)
        assert all(e.is_crash_stop for e in events)

    def test_deterministic_in_seed(self):
        assert seeded_crashes(6, n_crashes=2, seed=9) == \
            seeded_crashes(6, n_crashes=2, seed=9)
        assert seeded_crashes(6, n_crashes=2, seed=9) != \
            seeded_crashes(6, n_crashes=2, seed=10)

    def test_rejects_too_many_victims(self):
        with pytest.raises(ValueError):
            seeded_crashes(3, n_crashes=4)


class TestPlanValidation:
    def test_crash_event_window(self):
        with pytest.raises(ValueError):
            CrashEvent(0, 500.0, 400.0)  # recovers before it crashes
        with pytest.raises(ValueError):
            CrashEvent(-1, 100.0)

    def test_overlapping_same_group_partitions_rejected(self):
        plan = FaultPlan.build(partitions=(
            Partition([0, 1], 100.0, 500.0),
            Partition([0, 1], 400.0, 800.0),
        ))
        with pytest.raises(ValueError, match="overlapping partitions"):
            plan.validate()

    def test_disjoint_or_distinct_partitions_accepted(self):
        FaultPlan.build(partitions=(
            Partition([0, 1], 100.0, 500.0),
            Partition([0, 1], 500.0, 800.0),   # touching is fine
            Partition([2, 3], 300.0, 600.0),   # different group is fine
        )).validate()

    def test_overlapping_crash_windows_rejected(self):
        plan = FaultPlan.build(crashes=(
            CrashEvent(1, 100.0, 900.0),
            CrashEvent(1, 500.0, 1200.0),
        ))
        with pytest.raises(ValueError, match="overlapping crash windows"):
            plan.validate()

    def test_crash_past_horizon_rejected(self):
        plan = FaultPlan.build(crashes=(CrashEvent(0, 5000.0, 6000.0),))
        with pytest.raises(ValueError, match="never be observed"):
            plan.validate(horizon_ms=2000.0)
        plan.validate(horizon_ms=8000.0)  # observable: fine

    def test_runner_validates_against_workload_horizon(self):
        """A plan whose crash can never be observed is a config error."""
        plan = FaultPlan.build(crashes=(CrashEvent(0, 10_000_000.0, 10_000_500.0),))
        with pytest.raises(ValueError, match="never be observed"):
            run_simulation(SimulationConfig(
                protocol="optp", n_sites=3, n_vars=6, ops_per_process=5,
                seed=0, fault_plan=plan, retransmit=FAST_RETX,
            ))


class TestPlanJson:
    """Plan JSON is untrusted input.  A plan dumped before elastic
    membership was withdrawn carries a ``membership`` list: empty, it
    loads as it always did; with events in it, it is refused rather than
    run with less in it than the file says."""

    PLAN = FaultPlan.build(crashes=(CrashEvent(1, 100.0, 900.0),))

    def test_an_empty_membership_list_still_loads(self):
        old = dict(self.PLAN.as_dict(), membership=[])
        assert FaultPlan.from_dict(old) == self.PLAN
        assert "membership" not in self.PLAN.as_dict()

    def test_membership_events_are_refused(self):
        old = dict(self.PLAN.as_dict(),
                   membership=[{"kind": "join", "at_ms": 350.0}])
        with pytest.raises(ValueError,
                           match="elastic membership was withdrawn"):
            FaultPlan.from_dict(old)


class TestCliCrashPlan:
    def test_parses_recovery_and_stop_entries(self):
        events = _parse_crash_plan("800:1600:2,1200:-:4")
        assert events == (CrashEvent(2, 800.0, 1600.0), CrashEvent(4, 1200.0))
        assert events[1].is_crash_stop

    @pytest.mark.parametrize("bad", ["800:1600", "a:b:c", "800:700:1"])
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises((SystemExit, ValueError)):
            _parse_crash_plan(bad)


class TestPendingAccounting:
    def make(self):
        return CausalCluster(
            4, protocol="optp", n_vars=6,  # optp: fully replicated vars
            latency=ConstantLatency(10.0), fault_plan=FaultPlan(),
            retransmit=FAST_RETX, crash_recovery=True,
        )

    def test_messages_to_crashed_site_held_not_in_flight(self):
        c = self.make()
        c.write(0, var=0, value="warm")
        c.advance(200.0)
        c.crash_site(2)
        c.write(0, var=1, value="missed")   # optp replicates var 1 at site 2
        c.advance(400.0)
        pb = c.pending_breakdown()
        assert pb["held_for_crashed"] > 0
        assert pb["in_flight"] == 0         # live deliveries all acked
        assert c.pending_messages() == sum(pb.values()) - pb["in_flight"]
        c.recover_site(2)
        c.settle()
        assert c.pending_breakdown() == {
            "buffered": 0, "held_for_paused": 0,
            "held_for_crashed": 0, "in_flight": 0,
        }
        assert c.read(2, 1) == "missed"
        c.check().raise_if_violated()

    def test_settle_refuses_while_down(self):
        c = self.make()
        c.crash_site(1)
        with pytest.raises(RuntimeError, match="recover"):
            c.settle()
        c.recover_site(1)
        c.settle()

    def test_ops_at_down_site_rejected(self):
        c = self.make()
        c.crash_site(3)
        with pytest.raises(RuntimeError, match="down"):
            c.write(3, var=0, value=1)
        with pytest.raises(RuntimeError, match="down"):
            c.read(3, var=0)

    def test_crash_while_paused_rejected(self):
        """Held messages are acked-but-volatile: crashing a paused site
        would silently lose acknowledged deliveries."""
        c = self.make()
        c.pause_site(2)
        with pytest.raises(RuntimeError, match="paused"):
            c.crash_site(2)
        c.resume_site(2)
        c.crash_site(2)
        c.recover_site(2)
        c.settle()


class _Clock:
    """A bare ``Clock`` port: the core pieces need no simulator."""

    now = 0.0


def core_site(site, placement, protocol="opt-track"):
    from repro.core import ProtocolContext, create_protocol
    from repro.memory.store import SiteStore
    from repro.metrics.collector import MetricsCollector

    from .test_core_base import CaptureTransport

    ctx = ProtocolContext(
        site=site, n_sites=placement.n_sites, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=CaptureTransport(), clock=_Clock(),
        collector=MetricsCollector(),
    )
    return create_protocol(protocol, ctx)


def sent_to(proto, dst):
    return [m for _src, d, m in proto.ctx.network.sent if d == dst]


class TestCatchUpRule:
    """``caught_up`` with no simulator: each condition blocks on its own.

    Round-robin placement, n=4, p=2: site 0 holds {0, 3, 4, 7}, site 1
    (the rejoiner) holds {0, 1, 4, 5}; site 2 is the other live peer.
    """

    def make(self):
        placement = RoundRobinPlacement(4, 8, 2)
        return placement, [core_site(s, placement) for s in range(3)]

    def responses(self, sites, target=1, peers=(0, 2)):
        return {p: SyncResponse(p, target, 0, sites[p].pending_count,
                                build_digest(sites[p], target))
                for p in peers}

    def test_all_three_conditions_met(self):
        _, sites = self.make()
        assert caught_up(sites[1], self.responses(sites), [0, 2], 0)

    def test_unacked_traffic_blocks(self):
        _, sites = self.make()
        assert not caught_up(sites[1], self.responses(sites), [0, 2], 3)

    def test_a_silent_peer_blocks(self):
        _, sites = self.make()
        resp = self.responses(sites, peers=(0,))
        assert not caught_up(sites[1], resp, [0, 2], 0)
        assert caught_up(sites[1], resp, [0], 0)  # once 2 is no peer

    def test_an_unknown_digest_entry_blocks(self):
        _, sites = self.make()
        sites[0].write(0, "a")
        resp = self.responses(sites)
        assert sites[1].knows_write(sites[0].ctx.store.read(0).write_id) is False
        assert not caught_up(sites[1], resp, [0, 2], 0)
        (sm,) = sent_to(sites[0], 1)
        sites[1].on_message(0, sm)  # the write arrives through the gate
        assert caught_up(sites[1], resp, [0, 2], 0)

    def test_pending_buffer_blocks(self):
        _, sites = self.make()
        sites[0].write(0, "a")
        sites[0].write(0, "b")
        first, second = sent_to(sites[0], 1)
        sites[1].on_message(0, second)  # out of causal order: buffered
        assert sites[1].pending_count == 1
        no_digest = {p: SyncResponse(p, 1, 0, 0, ()) for p in (0, 2)}
        assert not caught_up(sites[1], no_digest, [0, 2], 0)
        sites[1].on_message(0, first)
        assert sites[1].pending_count == 0
        assert caught_up(sites[1], no_digest, [0, 2], 0)


class TestSyncDigest:
    def test_lists_exactly_the_co_replicated_variables(self):
        placement = RoundRobinPlacement(4, 8, 2)
        sites = [core_site(s, placement) for s in range(4)]
        wid = sites[0].write(4, "x")
        # site 0 holds {0, 3, 4, 7}; site 1 holds {0, 1, 4, 5}
        assert build_digest(sites[0], 1) == ((0, None),
                                             (4, (wid.site, wid.clock)))
        # target order: site 3 holds {2, 3, 6, 7}
        assert build_digest(sites[0], 3) == ((3, None), (7, None))
        # no shared variable, empty digest: site 2 holds {1, 2, 5, 6}
        assert build_digest(sites[0], 2) == ()
