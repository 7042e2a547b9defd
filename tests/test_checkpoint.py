"""Durable-state layer: snapshot/restore hooks, WAL, checkpoint policy.

The crash-recovery safety story rests on two local properties tested
here: (1) ``snapshot()``/``restore()`` round-trip every piece of
protocol metadata bit-exactly, for all four protocols; (2) WAL replay
re-executes the logged operations through the normal code paths without
emitting network traffic, so a restore is deterministic and silent.
Plus the two zero-overhead contracts: no machinery ⇒ the seed path is
untouched, and checkpointing alone (no crash) perturbs no metric.
"""

import pytest

from repro import (
    CausalCluster,
    ChannelFaults,
    ConstantLatency,
    CrashEvent,
    FaultPlan,
    RetransmitPolicy,
    SimulationConfig,
    run_simulation,
)
from repro.sim.checkpoint import DurabilityLayer, SiteDisk, WalRecord
from repro.sim.engine import Simulator
from repro.verify.causal_checker import check_causal_consistency

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp"]
FAST_RETX = RetransmitPolicy(base_rto_ms=120.0, max_rto_ms=2000.0, jitter_ms=10.0)


def canon(obj):
    """Structural form of a snapshot for equality checks.

    Snapshots deliberately hold live-typed state (numpy arrays, clock
    objects, KS logs) because ``restore`` reinstalls them directly;
    tests compare them by value via this canonicalizer.
    """
    import dataclasses

    import numpy as np

    from repro.core.clocks import MatrixClock, VectorClock
    from repro.core.log import OptTrackLog, TupleLog

    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.tolist())
    if isinstance(obj, MatrixClock):
        return ("matrix", obj.m.tolist())
    if isinstance(obj, VectorClock):
        return ("vector", obj.v.tolist())
    if isinstance(obj, OptTrackLog):
        return ("kslog", tuple(obj.entries()), tuple(sorted(obj._newest.items())))
    if isinstance(obj, TupleLog):
        return ("tuplelog", obj.entries())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(sorted((k, canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(canon(x) for x in obj)
    return obj


def busy_cluster(protocol, **kw):
    """A cluster with some applied state, pending traffic, and log content."""
    c = CausalCluster(4, protocol=protocol, n_vars=8,
                      latency=ConstantLatency(15.0), **kw)
    for i in range(12):
        c.write(i % 4, var=i % 8, value=i)
        if i % 3 == 0:
            c.advance(30.0)
    c.read(1, var=0)
    return c


class TestSnapshotRestore:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_round_trip_is_identity(self, protocol):
        c = busy_cluster(protocol)
        for proto in c.protocols:
            snap = proto.snapshot()
            proto.restore(snap)
            assert canon(proto.snapshot()) == canon(snap)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_restore_rolls_back_later_state(self, protocol):
        c = busy_cluster(protocol)
        proto = c.protocols[0]
        snap = proto.snapshot()
        # move the world forward: new writes change clocks, slots, logs
        for i in range(6):
            c.write(0, var=i % 8, value=f"later-{i}")
        c.settle()
        assert canon(proto.snapshot()) != canon(snap)
        proto.restore(snap)
        assert canon(proto.snapshot()) == canon(snap)

    def test_snapshot_is_deep(self):
        """Mutating live state after a snapshot must not leak into it."""
        c = busy_cluster("opt-track")
        proto = c.protocols[0]
        snap = proto.snapshot()
        before = canon(snap)
        c.write(0, var=0, value="mutation")
        c.settle()
        assert canon(snap) == before


class TestSiteDisk:
    def test_wal_appends_and_truncation(self):
        disk = SiteDisk(3)
        disk.log_write(1, "a")
        disk.log_recv(0, object())
        disk.log_read(2)
        assert [r.kind for r in disk.wal] == ["write", "recv", "read"]
        assert disk.wal_appends == 3
        disk.install_checkpoint({"state": 1}, 500.0)
        assert disk.wal == []  # checkpoint subsumes the journal
        assert disk.checkpoint_time == 500.0
        assert disk.checkpoints_taken == 1

    def test_wal_record_fields(self):
        r = WalRecord("write", var=4, value="x")
        assert (r.kind, r.var, r.value) == ("write", 4, "x")

    def test_checkpoint_policy_validation(self):
        for interval in (0.0, -5.0):
            with pytest.raises(ValueError):
                DurabilityLayer(Simulator(), [], interval_ms=interval)


class TestWalReplay:
    def crashy_run(self, protocol, checkpoint_interval_ms):
        plan = FaultPlan.build(
            default=ChannelFaults(drop_rate=0.05),
            crashes=(CrashEvent(2, 600.0, 1500.0),),
        )
        cfg = SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=10, ops_per_process=25,
            seed=4, record_history=True, fault_plan=plan, fault_seed=9,
            retransmit=FAST_RETX,
            checkpoint_interval_ms=checkpoint_interval_ms,
        )
        return run_simulation(cfg)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sparse_checkpoints_force_long_replay(self, protocol):
        """With one checkpoint at t=0, the whole pre-crash history comes
        back via WAL replay — and the run still verifies causally."""
        result = self.crashy_run(protocol, checkpoint_interval_ms=10_000.0)
        col = result.collector
        assert col.crashes == 1
        assert col.wal_replays.count == 1
        assert col.wal_replays.mean > 0  # something was actually replayed
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    def test_dense_checkpoints_shrink_replay(self):
        sparse = self.crashy_run("opt-track", 10_000.0)
        dense = self.crashy_run("opt-track", 50.0)
        assert (dense.collector.wal_replays.mean
                < sparse.collector.wal_replays.mean)
        assert (dense.collector.checkpoints_taken
                > sparse.collector.checkpoints_taken)

    def test_replay_emits_no_network_traffic(self):
        """Replay runs against a null network: total physical messages
        right after a restore equal those right before it plus the
        rejoin machinery's own traffic — no replayed SM/FM storm.

        Pinned indirectly: replayed writes would each multicast to all
        replicas; with ~drop-free channels the SM lifetime count must
        equal exactly one send per (write, remote replica) pair.
        """
        result = self.crashy_run("optp", 10_000.0)
        writes = len(list(result.history.writes()))
        sm = result.collector.tallies
        from repro.metrics.collector import MessageKind
        per_write_dests = result.config.n_sites - 1  # optp is fully replicated
        assert sm[MessageKind.SM].lifetime_count == writes * per_write_dests


class TestZeroOverheadContracts:
    BASE = dict(protocol="opt-track", n_sites=5, n_vars=12,
                ops_per_process=25, seed=6)

    def test_no_machinery_without_config(self):
        result = run_simulation(SimulationConfig(**self.BASE))
        assert result.crash_manager is None
        col = result.collector
        assert col.checkpoints_taken == 0
        assert result.summary()["heartbeats_sent"] == 0
        assert col.crashes == 0

    def test_checkpointing_alone_changes_no_metric(self):
        """A crash-free run with checkpointing on must match the run
        with it off on every metric except the checkpoint counters and
        the (tick-extended) simulated clock."""
        plan = FaultPlan.build(default=ChannelFaults(drop_rate=0.02))
        base = dict(self.BASE, fault_plan=plan, fault_seed=2,
                    retransmit=FAST_RETX)
        off = run_simulation(SimulationConfig(**base)).summary()
        on = run_simulation(SimulationConfig(
            **base, checkpoint_interval_ms=150.0)).summary()
        skip = {"sim_time_ms", "checkpoints_taken"}
        diff = {k for k in off if k not in skip and off[k] != on.get(k)}
        assert not diff, f"checkpointing perturbed metrics: {sorted(diff)}"

    def test_checkpoint_only_run_installs_no_detector(self):
        result = run_simulation(SimulationConfig(
            **self.BASE, checkpoint_interval_ms=200.0))
        assert result.crash_manager is not None
        assert result.crash_manager.detector is None
        assert result.summary()["heartbeats_sent"] == 0
        assert result.collector.checkpoints_taken > 0
