"""Behavioral tests of protocol internals.

These go below the public read/write API and assert the mechanics the
paper describes: merge-on-read (not on receipt), condition-1/2 pruning,
log resets, the d+1 bound, FIFO+dependency activation, and the gating of
remote-read returns under partial replication.
"""

import tracemalloc

import numpy as np
import pytest

from repro import CausalCluster, ConstantLatency, PerPairLatency
from repro.core.base import CausalProtocol
from repro.core.log import _NO_DESTS
from repro.core.opt_track import OptTrackProtocol, _shipped_log
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.memory.store import BOTTOM
from repro.sim.faults import ChannelFaults, CrashEvent, FaultPlan
from repro.verify.history import EventKind


def make(protocol, n=3, p=None, n_vars=6, latency=None):
    return CausalCluster(
        n,
        protocol=protocol,
        n_vars=n_vars,
        replication_factor=p,
        latency=latency or ConstantLatency(10.0),
    )


class TestFullTrackInternals:
    def test_write_increments_own_row_for_destinations(self):
        c = make("full-track", n=4, p=2)
        var = 1  # replicas {1, 2}
        c.write(0, var, "v")
        m = c.protocols[0].write_clock
        assert m[0, 1] == 1 and m[0, 2] == 1
        assert m[0, 0] == 0 and m[0, 3] == 0

    def test_receipt_does_not_merge_clock(self):
        # ->co tracking: receiving (even applying) an update must NOT
        # advance the receiver's Write clock — only reading the value does
        c = make("full-track", n=3, p=2)
        c.write(0, 0, "v")  # replicas {0, 1}
        c.settle()
        receiver = c.protocols[1]
        assert receiver.write_clock.m.sum() == 0  # applied but not merged
        c.read(1, 0)
        assert receiver.write_clock[0, 0] == 1
        assert receiver.write_clock[0, 1] == 1

    def test_last_write_on_stores_piggybacked_matrix(self):
        c = make("full-track", n=3, p=2)
        c.write(0, 0, "v")
        c.settle()
        wid, matrix = c.protocols[1].last_write_on[0]
        assert wid.site == 0 and wid.clock == 1
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1

    def test_apply_counts_track_writers(self):
        c = make("full-track", n=3, p=3)
        c.write(0, 0, "a")
        c.write(1, 1, "b")
        c.settle()
        assert c.protocols[2].applied == [1, 1, 0]


class TestOptTrackInternals:
    def test_log_gains_entry_per_write(self):
        c = make("opt-track", n=4, p=2)
        c.write(0, 0, "v")  # replicas {0, 1}
        log = c.protocols[0].log
        assert (0, 1) in log
        # own site excluded from the stored record (applied locally)
        assert log.dests_of(0, 1) == {1}

    def test_condition_two_prunes_on_next_write(self):
        c = make("opt-track", n=4, p=2)
        c.write(0, 0, "a")        # record (0,1) with dests {1}
        c.write(0, 1, "b")        # write to replicas {1, 2}: strips 1
        log = c.protocols[0].log
        assert (0, 1) not in log  # emptied and superseded by (0,2)
        assert log.dests_of(0, 2) == {1, 2}

    def test_receiver_strips_itself_from_stored_log(self):
        c = make("opt-track", n=4, p=3)
        c.write(0, 0, "a")  # replicas {0,1,2}
        c.settle()
        stored = c.protocols[1].last_write_on[0]
        wid, replicas, applier, piggy = stored
        assert replicas == {0, 1, 2} and applier == 1
        wdests = _shipped_log(stored)[-1].dests
        assert 1 not in wdests  # condition 1 at the applying site
        assert wdests == {2}   # 0 excluded at writer, 1 excluded here

    def test_read_merges_write_entry_into_log(self):
        c = make("opt-track", n=4, p=3)
        c.write(0, 0, "a")
        c.settle()
        reader = c.protocols[1]
        assert len(reader.log) == 0
        c.read(1, 0)
        assert (0, 1) in reader.log
        assert reader.log.dests_of(0, 1) == {2}  # only 2 still unconfirmed

    def test_applied_tracks_highest_clock(self):
        c = make("opt-track", n=3, p=3)
        for k in range(3):
            c.write(0, 0, k)
            c.settle()
        assert c.protocols[2].applied[0] == 3

    def test_fifo_assertion_guards_regression(self):
        c = make("opt-track", n=3, p=3)
        c.write(0, 0, "a")
        c.settle()
        proto = c.protocols[1]
        from repro.core.messages import OptTrackSM
        from repro.memory.store import WriteId

        stale = OptTrackSM(var=0, value="x", write_id=WriteId(0, 1), log=())
        with pytest.raises(AssertionError, match="FIFO"):
            proto._apply_sm(0, stale)


class TestCRPInternals:
    def test_log_resets_after_write(self):
        c = make("opt-track-crp", n=3)
        c.write(0, 0, "a")
        c.settle()
        c.read(1, 0)
        writer_log = c.protocols[1].log
        c.write(1, 1, "b")
        assert writer_log.entries() == ((1, 1),)  # singleton: own write

    def test_write_piggybacks_pre_reset_dependencies(self):
        c = make("opt-track-crp", n=3)
        c.write(0, 0, "a")
        c.settle()
        c.read(1, 0)              # log at 1: {(0,1)}
        c.write(1, 1, "b")        # must piggyback the (0,1) dependency
        c.settle()
        # receiver 2 applied "b" only after "a": check apply order
        applies = [(e.site, e.write_id)
                   for e in c.history.of_kind(EventKind.APPLY) if e.site == 2]
        assert applies.index((2, (0, 1))) < applies.index((2, (1, 1)))

    def test_log_bounded_by_d_plus_one(self):
        c = make("opt-track-crp", n=4, n_vars=8)
        # interleave writes from several sites, then read d distinct vars
        for k in range(4):
            c.write(k, k, k)
            c.settle()
        c.write(3, 7, "w")  # resets site 3's log to 1 entry
        c.settle()
        d = 0
        for var in range(3):
            c.read(3, var)
            d += 1
            assert len(c.protocols[3].log) <= d + 1

    def test_reads_of_same_writer_keep_one_entry(self):
        c = make("opt-track-crp", n=3, n_vars=6)
        c.write(0, 1, "a")
        c.settle()
        c.write(0, 2, "b")
        c.settle()
        c.write(1, 3, "c")  # reset site 1's log
        c.settle()
        c.read(1, 1)
        c.read(1, 2)  # same writing site: subsumes the first entry
        log = c.protocols[1].log
        assert log.clock_of(0) == 2
        assert len(log) == 2  # own write + one entry for writer 0

    def test_no_fetch_traffic(self):
        from repro.metrics.collector import MessageKind

        c = make("opt-track-crp", n=3)
        c.write(0, 0, "a")
        c.settle()
        c.read(2, 0)
        assert c.collector.tally(MessageKind.FM).lifetime_count == 0
        assert c.collector.tally(MessageKind.RM).lifetime_count == 0


class TestOptPInternals:
    def test_receipt_does_not_merge_vector(self):
        c = make("optp", n=3)
        c.write(0, 0, "v")
        c.settle()
        receiver = c.protocols[1]
        assert receiver.write_clock.v.tolist() == [0, 0, 0]
        c.read(1, 0)
        assert receiver.write_clock.v.tolist() == [1, 0, 0]

    def test_vector_piggyback_includes_read_dependencies(self):
        c = make("optp", n=3)
        c.write(0, 0, "a")
        c.settle()
        c.read(1, 0)
        c.write(1, 1, "b")
        proto = c.protocols[1]
        _, vec = proto.last_write_on[1]
        assert vec.v.tolist() == [1, 1, 0]

    def test_fifo_apply_counts(self):
        c = make("optp", n=3)
        for k in range(3):
            c.write(0, 0, k)
        c.settle()
        assert c.protocols[2].applied == [3, 0, 0]


class TestRemoteReadGating:
    """A fetched value's causal dependencies destined to the reader must
    be applied before the read completes (DESIGN.md design decision)."""

    @pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
    def test_rm_blocks_until_dependency_applied(self, protocol):
        # sites: 0 writes var2 (lives at 2) then var1 (lives at 1);
        # channel 0->2 is very slow, everything else fast.  Site 2 then
        # remote-reads var1: the returned value causally depends on the
        # write to var2, destined to site 2 but still in flight -> the
        # read must not complete before it is applied.
        lat = [
            [0.0, 5.0, 500.0],
            [5.0, 0.0, 5.0],
            [5.0, 5.0, 0.0],
        ]
        c = CausalCluster(
            3, protocol=protocol, n_vars=3, replication_factor=1,
            latency=PerPairLatency(lat),
        )
        c.write(0, 2, "dep")     # SM 0->2, arrives at t~500
        c.advance(1.0)
        c.write(0, 1, "val")     # SM 0->1, arrives fast, carries the dep
        c.advance(50.0)          # plenty for everything except 0->2
        value, _ = c.read_with_id(2, 1)   # fetch 2->1, gated RM back
        assert value == "val"
        # by completion, the dependency must have been applied locally
        assert c.read(2, 2) == "dep"
        assert c.now >= 500.0    # the read had to wait for the slow SM
        c.settle()
        c.check().raise_if_violated()

    def test_unwritten_variable_remote_read_returns_bottom(self):
        c = CausalCluster(3, protocol="opt-track", n_vars=3,
                          replication_factor=1, latency=ConstantLatency(5.0))
        assert c.read(0, 2) is BOTTOM

    @pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
    def test_fetch_gated_on_readers_own_write(self, protocol):
        # Regression for the soundness gap described in DESIGN.md: site 0
        # writes var1 (replicated only at site 1) while site 1 has that
        # SM buffered behind a slow dependency; site 0 then remote-reads
        # var1.  Without FM requirement gating, site 1 answers with the
        # stale pre-write value (here bottom) — a causal violation.
        lat = [
            [0.0, 5.0, 5.0],
            [5.0, 0.0, 5.0],
            [5.0, 900.0, 5.0],   # site2 -> site1 very slow
        ]
        c = CausalCluster(3, protocol=protocol, n_vars=3, replication_factor=1,
                          latency=PerPairLatency(lat))
        c.write(2, 1, "dep")       # slow SM 2->1
        c.advance(1.0)
        c.write(2, 0, "z")         # fast SM 2->0
        c.advance(50.0)
        assert c.read(0, 0) == "z"     # site 0 now causally knows "dep"
        c.write(0, 1, "mine")          # SM 0->1 buffers behind "dep"
        c.advance(50.0)
        assert c.read(0, 1) == "mine"  # gated serve: never the stale value
        c.settle()
        c.check().raise_if_violated()

    @pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
    def test_fetch_requirements_cover_latest_own_write(self, protocol):
        c = CausalCluster(4, protocol=protocol, n_vars=4, replication_factor=2,
                          latency=ConstantLatency(5.0))
        # write a variable this site does not replicate, twice
        var = next(v for v in range(4)
                   if not c.placement.is_replicated_at(v, 0))
        c.write(0, var, "a")
        c.write(0, var, "b")
        target = c.placement.fetch_site(var, 0)
        reqs = dict(c.protocols[0]._fetch_requirements(var, target))
        # the latest own write must be among the requirements
        if protocol == "opt-track":
            assert reqs.get(0) == 2          # own clock of write "b"
        else:
            assert reqs.get(0) == 2          # two writes destined to target

    def test_full_track_fetch_requirements_are_plain_ints(self):
        c = CausalCluster(5, protocol="full-track", n_vars=10,
                          replication_factor=2, latency=ConstantLatency(5.0))
        for k in range(12):
            c.write(k % 5, (3 * k) % 10, k)
            c.settle()
            c.read(0, k % 10)  # merge-on-read spreads the others' writes
        proto = c.protocols[0]
        seen = 0
        for target in range(5):
            reqs = proto._fetch_requirements(0, target)
            column = proto.write_clock.column(target)
            assert reqs == tuple((j, int(x)) for j, x in enumerate(column)
                                 if x > 0)
            assert all(type(j) is int and type(x) is int for j, x in reqs)
            seen += len(reqs)
        assert seen > 5


class TestOptTrackLogNeverNamesItsOwner:
    """Implicit condition 1 has nothing left to strip at a write.

    An RM is gated until every record naming the reader is applied
    there, and a local read merges the stored log with the reader
    already stripped, so outside a merge no record in a site's log names
    the site itself; ``_perform_write`` relies on it and purges without
    ``self_site``.  Checked after every operation, arrival, restore and
    WAL replay of whole runs, plain and under drops, duplicates and a
    crash with recovery."""

    ENTRY_POINTS = ("write", "read", "on_message", "restore", "replay")

    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos-crash"])
    @pytest.mark.parametrize("protocol", ["opt-track", "opt-track-noprune"])
    def test_after_every_operation(self, protocol, chaos, monkeypatch):
        checked = dict.fromkeys(self.ENTRY_POINTS, 0)

        def checking(name):
            method = getattr(CausalProtocol, name)

            def wrapper(self, *args, **kwargs):
                result = method(self, *args, **kwargs)
                named = [e for e in self.log.entries() if self.site in e.dests]
                assert not named, (name, self.site, named)
                checked[name] += 1
                return result
            return wrapper

        for name in self.ENTRY_POINTS:
            monkeypatch.setattr(OptTrackProtocol, name, checking(name))
        plan = None
        if chaos:
            plan = FaultPlan.build(
                default=ChannelFaults(drop_rate=0.05, dup_rate=0.02),
                crashes=(CrashEvent(2, 600.0, 1500.0),),
            )
        result = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=12, replication_factor=3,
            ops_per_process=40, gap_range_ms=(5.0, 205.0), seed=7,
            fault_plan=plan, fault_seed=3))
        assert result.collector.ops_read_remote > 0
        assert sum(len(p.log) for p in result.protocols) > 0
        assert checked["write"] > 0 and checked["read"] > 0
        assert checked["on_message"] > checked["write"]
        if chaos:  # the crashed site came back through both paths
            assert checked["restore"] == checked["replay"] == 1


class TestOptTrackLastWriteOnDests:
    """LastWriteOn<h> yields the write's remaining destinations.

    At every apply, on the SM path and the local-write path alike (WAL
    replay included), the set derived from the stored entry is the
    replica set under the *current* placement less the writer (it applied
    its own write at the write event) and less this site (implicit
    condition 1)."""

    PLANS = {
        "plain": None,
        "chaos": FaultPlan.build(
            default=ChannelFaults(drop_rate=0.05, dup_rate=0.02)),
        "crash-recover": FaultPlan.build(
            default=ChannelFaults(drop_rate=0.05),
            crashes=(CrashEvent(2, 600.0, 1500.0),)),
    }

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("protocol", ["opt-track", "opt-track-noprune"])
    def test_at_every_apply(self, protocol, plan, monkeypatch):
        checked: list[float] = []
        apply_write = OptTrackProtocol._apply_write

        def checking(self, var, value, wid, applied_to, last_write, issued_at):
            apply_write(self, var, value, wid, applied_to, last_write, issued_at)
            expected = self.ctx.placement.replica_set(var) - {wid.site, self.site}
            record = _shipped_log(self.last_write_on[var])[-1]
            assert (record.writer, record.clock) == (wid.site, wid.clock)
            assert record.dests == expected, (self.site, var, wid)
            checked.append(self.ctx.clock.now)

        monkeypatch.setattr(OptTrackProtocol, "_apply_write", checking)
        result = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=12, replication_factor=3,
            ops_per_process=60, gap_range_ms=(5.0, 55.0), seed=7,
            fault_plan=self.PLANS[plan], fault_seed=3))
        assert len(checked) > 100
        if plan == "crash-recover":
            assert result.collector.downtime.count == 1


def test_opt_track_retains_no_per_site_memo():
    """What Opt-Track's code holds at quiescence is protocol state.

    ``core/opt_track.py`` holds LastWriteOn, ~0.19 MiB here: storing a
    fresh remaining-destination set at every apply held 0.44 MiB, and a
    per-site ``(var, writer)`` destination-set memo on the apply path
    2.45 MiB.  ``core/log.py`` holds the logs, ~0.75 MiB: keeping each
    writer's present clocks in a set (whose grown table is never given
    back) held 0.93 MiB.  Each would fail its bound."""
    config = SimulationConfig(protocol="opt-track", n_sites=20,
                              replication_factor=6, n_vars=100,
                              ops_per_process=50, seed=1)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        result = run_simulation(config)
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert result.collector.ops_write > 0
    for path, bound in (("*/repro/core/opt_track.py", 0.3 * 2**20),
                        ("*/repro/core/log.py", 0.84 * 2**20)):
        held = snapshot.filter_traces([tracemalloc.Filter(True, path)])
        held_bytes = sum(stat.size for stat in held.statistics("filename"))
        assert held_bytes < bound, f"{path}: {held_bytes / 2**20:.2f} MiB"


def test_opt_track_logs_share_one_empty_destination_set():
    """Every record whose destinations have all been learned holds the
    module's one empty set: CPython 3.11 has no empty-frozenset
    singleton, so a shrink to nothing built a fresh 200-byte set each
    time (678 distinct ones held at quiescence on the same input at 100
    ops/process)."""
    result = run_simulation(SimulationConfig(
        protocol="opt-track", n_sites=40, replication_factor=12, n_vars=100,
        ops_per_process=50, seed=1))
    empty = [e.dests for proto in result.protocols
             for e in proto.log._records.values() if not e.dests]
    assert len(empty) > 100
    assert all(dests is _NO_DESTS for dests in empty)
