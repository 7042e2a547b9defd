"""Elastic membership: epoch-based view changes under churn.

The view manager admits joiners from a donor snapshot (the first
checkpoint of their disk when the crash stack is installed), retires
leavers after handing off solely-held replicas, and evicts
persistently-suspected crash-stopped sites.  These tests pin the whole
lifecycle:

* multi-epoch runs stay causally consistent and deterministic for all
  four protocols, composed with crashes and partitions;
* operations addressed to departed sites fail fast with typed errors;
* ``FaultPlan`` round-trips membership events through JSON;
* detector flapping under churn leaves retransmit pause/resume balanced;
* the static path builds no view manager at all (zero-overhead rule),
  and churn alone installs no crash stack.
"""

import pytest

from repro import (
    CausalCluster,
    ChannelFaults,
    CrashEvent,
    FaultPlan,
    Partition,
    SimulationConfig,
    UniformLatency,
    run_simulation,
)
from repro.core import protocol_names
from repro.core.errors import (
    DepartedSiteError,
    MembershipError,
    UnknownSiteError,
)
from repro.core.recovery import DetectorPolicy
from repro.sim.faults import JoinEvent, LeaveEvent, seeded_churn
from repro.verify.causal_checker import check_causal_consistency

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp", "hb-track"]

#: joins + leave + crash/recover + transient partition in one plan
CHAOS_PLAN = FaultPlan.build(
    membership=[JoinEvent(at_ms=350.0), LeaveEvent(site=2, at_ms=1100.0)],
    crashes=[CrashEvent(site=1, at_ms=500.0, recover_ms=800.0)],
    partitions=[Partition([0, 3], 600.0, 750.0)],
)


def churn_run(protocol, plan=CHAOS_PLAN, *, seed=7, **kw):
    cfg = SimulationConfig(
        protocol=protocol, n_sites=4, n_vars=12, ops_per_process=40,
        gap_range_ms=(5.0, 55.0), seed=seed, record_history=True,
        fault_plan=plan, checkpoint_interval_ms=150.0, **kw,
    )
    return run_simulation(cfg)


# ----------------------------------------------------------------------
# multi-epoch correctness, all four protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_churn_run_is_causal_and_multi_epoch(protocol):
    result = churn_run(protocol)
    vm = result.view_manager
    assert vm is not None
    assert vm.view.epoch == 2
    assert vm.stats.joins == 1 and vm.stats.leaves == 1
    # the joiner got the next never-used id; the leaver's id is retired
    assert vm.view.members == (0, 1, 3, 4)
    assert vm.membership_status(2) == "left"
    assert vm.membership_status(4) == "member"
    report = check_causal_consistency(result.history, result.config)
    assert report.ok, report.violations[:5]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_churn_run_is_deterministic(protocol):
    a = churn_run(protocol)
    b = churn_run(protocol)
    assert a.history.events == b.history.events
    assert a.view_manager.view == b.view_manager.view


@pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
def test_crash_stop_site_is_auto_evicted(protocol):
    plan = FaultPlan.build(crashes=[CrashEvent(site=2, at_ms=400.0)])
    result = churn_run(protocol, plan, auto_evict_after_ms=300.0)
    vm = result.view_manager
    assert vm.membership_status(2) == "evicted"
    assert vm.stats.evictions == 1
    assert 2 not in vm.view.members
    report = check_causal_consistency(result.history, result.config)
    assert report.ok, report.violations[:5]


@pytest.mark.parametrize("protocol", ["full-track", "opt-track"])
def test_late_packet_from_departed_site_is_not_applied_twice(protocol, capsys):
    # a data packet from site 0 lands after site 0 left and its channels
    # were forgotten; delivered, it re-opened channel 0 -> 5 at sequence
    # 0 and site 5 applied writer 0's first write a second time
    # (Full-Track: an apply-order violation; Opt-Track: its FIFO assert)
    from repro.cli import main

    rc = main(["run", "--check", "--protocol", protocol, "-n", "8", "-p", "3",
               "-q", "20", "--ops", "60", "--latency", "adversarial",
               "--seed", "2", "--churn-joins", "1",
               "--churn-leaves", "1", "--drop-rate", "0.05",
               "--churn-seed", "2", "--fault-seed", "2"])
    out = capsys.readouterr().out
    assert "causal consistency: OK" in out
    assert rc == 0


def test_static_run_builds_no_view_manager():
    cfg = SimulationConfig(protocol="opt-track", n_sites=4, n_vars=12,
                           ops_per_process=20, seed=7, record_history=True)
    result = run_simulation(cfg)
    assert result.view_manager is None
    # the broadcast fast path stays active on every protocol instance
    assert all(p._members is None for p in result.protocols)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_churn_alone_installs_no_crash_stack(protocol):
    # joins bootstrap from a donor snapshot and leavers drain at a
    # fence: neither needs a checkpoint, so a churn plan without a crash
    # plan takes none, and what it applies matches a checkpointed run
    plan = FaultPlan.build(
        default=ChannelFaults(drop_rate=0.05),
        membership=[JoinEvent(at_ms=350.0), LeaveEvent(site=2, at_ms=1100.0)],
    )

    def run(**kw):
        result = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=12, ops_per_process=40,
            gap_range_ms=(5.0, 55.0), seed=7, fault_plan=plan, **kw))
        stores = [{v: p.ctx.store.read(v) for v in p.ctx.store.variables}
                  for p in result.protocols]
        return result, stores

    churn_only, stores = run()
    assert churn_only.crash_manager is None
    assert churn_only.collector.checkpoints_taken == 0
    assert churn_only.view_manager.stats.joins == 1
    assert churn_only.view_manager.stats.leaves == 1
    checkpointed, checkpointed_stores = run(checkpoint_interval_ms=150.0)
    assert checkpointed.crash_manager is not None
    assert checkpointed.collector.checkpoints_taken > 0
    assert stores == checkpointed_stores
    assert any(slot.write_id is not None for store in stores
               for slot in store.values())


@pytest.mark.parametrize("protocol", protocol_names())
def test_double_run_differ_accepts_multi_epoch_history(protocol, monkeypatch):
    # same seed => same bytes across the whole crash + membership stack:
    # a crash-recovery, a crash-stop escalated into an eviction, a join
    # and a leave, over a lossy transport
    from repro.check import double_run
    from repro.experiments import runner

    results = []
    run = runner.run_simulation

    def recording_run(cfg, **kw):
        results.append(run(cfg, **kw))
        return results[-1]

    monkeypatch.setattr(runner, "run_simulation", recording_run)
    cfg = SimulationConfig(
        protocol=protocol, n_sites=5, n_vars=10, ops_per_process=20,
        seed=11, record_history=True, auto_evict_after_ms=800.0,
        fault_plan=FaultPlan.build(
            default=ChannelFaults(drop_rate=0.05),
            membership=[JoinEvent(at_ms=300.0), LeaveEvent(site=0, at_ms=900.0)],
            crashes=[CrashEvent(2, 400.0, 1200.0), CrashEvent(4, 700.0)],
        ),
    )
    report = double_run(cfg)
    assert report.identical, report.format()
    assert len(results) == 2
    for result in results:
        vm = result.view_manager
        stats = vm.stats
        assert (stats.joins, stats.leaves, stats.evictions) == (1, 1, 1)
        # the network's record of members is the announced view's
        assert vm.network.members == vm.view.members == (1, 2, 3, 5)
        assert result.collector.crashes == 2
        assert result.collector.downtime.count == 1  # one restore


# ----------------------------------------------------------------------
# seeded churn generation + plan composition
# ----------------------------------------------------------------------
def test_seeded_churn_is_deterministic_and_sorted():
    a = seeded_churn(5, n_joins=2, n_leaves=2, seed=13)
    b = seeded_churn(5, n_joins=2, n_leaves=2, seed=13)
    assert a == b
    assert [e.at_ms for e in a] == sorted(e.at_ms for e in a)
    assert sum(isinstance(e, JoinEvent) for e in a) == 2
    leavers = [e.site for e in a if isinstance(e, LeaveEvent)]
    assert len(set(leavers)) == 2 and all(0 <= s < 5 for s in leavers)


def test_seeded_churn_avoids_crash_victims():
    crashes = (CrashEvent(site=0, at_ms=500.0), CrashEvent(site=1, at_ms=700.0))
    events = seeded_churn(4, n_joins=0, n_leaves=2, seed=3,
                          avoid={c.site for c in crashes})
    assert {e.site for e in events} <= {2, 3}
    with pytest.raises(ValueError):
        seeded_churn(4, n_leaves=3, avoid={0, 1})
    with pytest.raises(ValueError):
        seeded_churn(2, n_leaves=2)  # would empty the initial membership


def test_fault_plan_json_round_trips_membership():
    plan = FaultPlan.build(
        membership=[JoinEvent(at_ms=350.0), LeaveEvent(site=2, at_ms=1100.0)],
        crashes=[CrashEvent(site=1, at_ms=500.0, recover_ms=800.0)],
        partitions=[Partition([0, 3], 600.0, 750.0)],
    )
    restored = FaultPlan.from_json(plan.to_json(indent=2))
    assert restored.as_dict() == plan.as_dict()
    assert restored.membership == plan.membership
    assert isinstance(restored.membership[0], JoinEvent)
    assert isinstance(restored.membership[1], LeaveEvent)
    # an empty plan stays empty through the round trip
    empty = FaultPlan.build()
    assert FaultPlan.from_json(empty.to_json()).as_dict() == empty.as_dict()


def test_plan_validation_rejects_churn_conflicts():
    with pytest.raises(ValueError):
        FaultPlan.build(
            membership=[LeaveEvent(site=1, at_ms=600.0)],
            crashes=[CrashEvent(site=1, at_ms=400.0)],
        ).validate()


# ----------------------------------------------------------------------
# interactive cluster: join / leave / evict lifecycle
# ----------------------------------------------------------------------
def make_cluster(**kw):
    kw.setdefault("protocol", "opt-track")
    kw.setdefault("n_vars", 6)
    kw.setdefault("latency", UniformLatency(2.0, 10.0))
    return CausalCluster(4, **kw)


def test_join_site_serves_reads_and_writes():
    cluster = make_cluster()
    cluster.write(0, var=0, value="before")
    cluster.settle()
    joiner = cluster.join_site()
    assert joiner == 4
    assert cluster.view.epoch == 1
    assert cluster.network.members == cluster.view.members == (0, 1, 2, 3, 4)
    assert cluster.membership_status(joiner) == "member"
    cluster.write(joiner, var=1, value="from-joiner")
    cluster.settle()
    assert cluster.read(joiner, var=0) == "before"
    assert cluster.read(0, var=1) == "from-joiner"
    cluster.check().raise_if_violated()


def test_leave_hands_off_solely_held_replicas():
    cluster = CausalCluster(4, protocol="opt-track", n_vars=4,
                            replication_factor=1,
                            latency=UniformLatency(2.0, 10.0))
    # with p=1 and round-robin placement, var 1 lives only at site 1
    assert tuple(cluster.placement.replicas(1)) == (1,)
    cluster.write(1, var=1, value="precious")
    cluster.settle()
    cluster.leave_site(1)
    assert cluster.membership_status(1) == "left"
    assert cluster.view_manager.stats.handoffs >= 1
    # the successor now holds the replica; a remote read still works
    assert 1 not in cluster.placement.replicas(1)
    assert cluster.read(0, var=1) == "precious"
    cluster.check().raise_if_violated()


def test_evict_degrades_solely_held_replicas_to_bottom():
    cluster = CausalCluster(4, protocol="opt-track", n_vars=4,
                            replication_factor=1, crash_recovery=True,
                            fault_plan=FaultPlan.build(),
                            latency=UniformLatency(2.0, 10.0))
    cluster.write(1, var=1, value="doomed")
    cluster.settle()
    cluster.crash_site(1)
    cluster.evict_site(1)
    assert cluster.membership_status(1) == "evicted"
    assert cluster.view_manager.stats.lost_variables >= 1
    assert cluster.read(0, var=1) is None  # BOTTOM, not stale garbage
    cluster.check().raise_if_violated()


def test_operations_on_departed_sites_fail_fast():
    cluster = make_cluster(crash_recovery=True)
    cluster.write(0, var=0, value=1)
    cluster.settle()
    cluster.leave_site(2)
    assert cluster.network.members == cluster.view.members == (0, 1, 3)

    with pytest.raises(DepartedSiteError) as exc:
        cluster.write(2, var=0, value=2)
    assert "site 2" in str(exc.value) and "left" in str(exc.value)
    with pytest.raises(DepartedSiteError):
        cluster.read(2, var=0)
    with pytest.raises(DepartedSiteError):
        cluster.recover_site(2)
    with pytest.raises(DepartedSiteError):
        cluster.resume_site(2)
    with pytest.raises(DepartedSiteError):
        cluster.leave_site(2)  # cannot leave twice

    # departed errors are still MembershipError (and catchable broadly)
    assert issubclass(DepartedSiteError, MembershipError)
    # surviving sites keep working
    cluster.write(0, var=1, value=3)
    cluster.settle()
    assert cluster.read(1, var=1) == 3


def test_unknown_site_errors_name_site_and_capacity():
    cluster = make_cluster(crash_recovery=True)
    for fn in (cluster.recover_site, cluster.resume_site, cluster.pause_site):
        with pytest.raises(UnknownSiteError) as exc:
            fn(99)
        assert "99" in str(exc.value)
    # UnknownSiteError keeps ValueError compatibility for old callers
    with pytest.raises(ValueError):
        cluster.recover_site(99)
    assert cluster.membership_status(99) == "unknown"


def test_membership_status_without_view_manager():
    cluster = make_cluster()
    assert cluster.view.epoch == 0
    assert cluster.view_manager is None
    assert cluster.membership_status(0) == "member"
    assert cluster.membership_status(7) == "unknown"


# ----------------------------------------------------------------------
# failure-detector flapping under churn (pause/resume accounting)
# ----------------------------------------------------------------------
def test_detector_flapping_under_churn_balances_pause_resume():
    cluster = make_cluster(
        crash_recovery=True,
        fault_plan=FaultPlan.build(),
        detector=DetectorPolicy(heartbeat_interval_ms=40.0, timeout_ms=150.0),
    )
    transport = cluster.network.transport
    detector = cluster.crash_manager.detector
    assert transport is not None and detector is not None

    calls = {"pause": 0, "resume": 0}
    orig_pause, orig_resume = transport.pause_pair, transport.resume_pair

    def pause(src, dst):
        calls["pause"] += 1
        orig_pause(src, dst)

    def resume(src, dst, **kw):
        calls["resume"] += 1
        orig_resume(src, dst, **kw)

    transport.pause_pair, transport.resume_pair = pause, resume

    cluster.write(0, var=0, value=1)
    cluster.settle()

    # flap twice: sever site 2 at the wire long enough to trip false
    # suspicions, then heal and let heartbeats clear them
    for _ in range(2):
        cluster.partition([2])
        cluster.advance(600.0)
        cluster.heal()
        cluster.advance(600.0)
    assert cluster.collector.false_suspicions >= 1

    # churn while the detector is live: join then retire the flapped site
    cluster.join_site()
    cluster.leave_site(2)
    cluster.settle()

    # every pause was either resumed or dropped with the departed site;
    # no live pair is left silently paused
    assert calls["pause"] >= 1
    assert calls["pause"] >= calls["resume"]
    assert not transport.paused_pairs
    assert not detector.suspected
    cluster.check().raise_if_violated()
