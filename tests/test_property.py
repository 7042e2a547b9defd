"""Property-based tests (hypothesis).

The heavyweight property: for *any* small workload, placement, latency
regime, and seed, every protocol produces a causally consistent history,
finishes every schedule, and drains every buffer.  This is the closest a
simulation can get to model-checking the activation predicates.

Lighter structural properties cover the core data structures: clock
merge is a join, log pruning never adds destinations, piggyback views
never lose a receiver's own gating information, and the CRP tuple log is
bounded by the number of writers.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AdversarialLatency,
    ConstantLatency,
    SimulationConfig,
    UniformLatency,
    check_causal_consistency,
    run_simulation,
)
from repro.core.activation import opt_track_entries_blocker
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import OptTrackLog, PiggybackEntry, PiggybackView, TupleLog

SIM_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

protocols = st.sampled_from(["full-track", "opt-track", "opt-track-crp", "optp"])
latencies = st.sampled_from([
    ConstantLatency(15.0),
    UniformLatency(1.0, 300.0),
    AdversarialLatency(),
])


@st.composite
def sim_configs(draw):
    protocol = draw(protocols)
    n = draw(st.integers(2, 7))
    q = draw(st.integers(2, 10))
    full = protocol in ("opt-track-crp", "optp")
    p = n if full else draw(st.integers(1, n))
    return SimulationConfig(
        protocol=protocol,
        n_sites=n,
        n_vars=q,
        replication_factor=p,
        write_rate=draw(st.floats(0.0, 1.0)),
        ops_per_process=draw(st.integers(5, 30)),
        seed=draw(st.integers(0, 10_000)),
        latency=draw(latencies),
        record_history=True,
        max_events=200_000,
    )


class TestProtocolSafetyAndLiveness:
    @SIM_SETTINGS
    @given(cfg=sim_configs())
    def test_causal_consistency_and_quiescence(self, cfg):
        result = run_simulation(cfg)  # strict: raises if stuck
        report = check_causal_consistency(result.history, result.placement)
        report.raise_if_violated()
        assert all(p.pending_count == 0 for p in result.protocols)

    @SIM_SETTINGS
    @given(
        n=st.integers(2, 6),
        wr=st.floats(0.1, 0.9),
        seed=st.integers(0, 1000),
    )
    def test_partial_protocols_agree_on_counts(self, n, wr, seed):
        from repro.experiments.sweep import cell_config
        from repro.metrics.collector import MessageKind

        runs = {p: run_simulation(cell_config(p, n, wr, ops_per_process=15, seed=seed))
                for p in ("full-track", "opt-track")}
        for kind in MessageKind:
            assert (runs["full-track"].collector.tally(kind).count
                    == runs["opt-track"].collector.tally(kind).count)


# ----------------------------------------------------------------------
# data-structure properties
# ----------------------------------------------------------------------
matrices = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 20), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: MatrixClock(n, np.array(rows)))
)


class TestClockProperties:
    @given(m=matrices)
    @settings(max_examples=50, deadline=None)
    def test_merge_idempotent(self, m):
        a = m.copy()
        a.merge(m)
        assert a == m

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative_and_dominating(self, data):
        n = data.draw(st.integers(2, 4))
        rows = st.lists(
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
        a = MatrixClock(n, np.array(data.draw(rows)))
        b = MatrixClock(n, np.array(data.draw(rows)))
        ab, ba = a.copy(), b.copy()
        ab.merge(b)
        ba.merge(a)
        assert ab == ba
        assert ab.dominates(a) and ab.dominates(b)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_vector_merge_associative(self, data):
        n = data.draw(st.integers(1, 5))
        vec = st.lists(st.integers(0, 9), min_size=n, max_size=n)
        a = VectorClock(n, data.draw(vec))
        b = VectorClock(n, data.draw(vec))
        c = VectorClock(n, data.draw(vec))
        left = a.copy()
        bc = b.copy()
        bc.merge(c)
        left.merge(bc)
        right = a.copy()
        right.merge(b)
        right.merge(c)
        assert left == right


entries_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 8),
              st.frozensets(st.integers(0, 5), max_size=4)),
    max_size=12,
).map(lambda raw: [PiggybackEntry(j, c, d) for j, c, d in raw])


def _reference_copy(pre_write, write_dests, d):
    """The copy of a multicast to ``write_dests`` that travels to ``d``,
    built record by record from the ``pre_write`` snapshot of the log:
    strip the co-destinations ``write_dests - {d}``; a record the
    stripping kills (empty everywhere, not its writer's newest) rides
    only on the copies of the destinations it named, after the live
    records.  ``d=None`` is the copy no receiver regains anything in:
    the shared base."""
    newest = {}
    for e in pre_write:
        newest[e.writer] = max(newest.get(e.writer, 0), e.clock)
    live, dead = [], []
    for e in pre_write:
        shipped = PiggybackEntry(e.writer, e.clock,
                                 e.dests - (write_dests - {d}))
        killed = (e.dests & write_dests and not e.dests - write_dests
                  and newest[e.writer] != e.clock)
        if not killed:
            live.append(shipped)
        elif d in e.dests:
            dead.append(shipped)
    return tuple(live + dead)


class _TwoPassLog:
    """Reference log, one mutable set per record, no tombstones and no
    incremental bookkeeping: every rule is a scan of the records.

    * The write as it was before the log kept one frozen record per
      write: implicit condition 2 as its own pass (:meth:`remove_dests`)
      after the views are built, then a PURGE that finds the empty
      records by scanning.  :meth:`strip` is what the single-pass write
      leaves behind on its own, before that PURGE.
    * MERGE transcribed record by record from KS: union of the two logs,
      intersection of a record both hold, and a record one log lacks
      while holding a newer record of its writer is dead on both sides.
    """

    def __init__(self):
        self.records = {}  # insertion-ordered, like the log's
        self.purged = 0

    def newest(self):
        newest = {}
        for writer, clock in self.records:
            newest[writer] = max(newest.get(writer, 0), clock)
        return newest

    def insert(self, writer, clock, dests):
        key = (writer, clock)
        if key in self.records:
            self.records[key] &= set(dests)
        else:
            self.records[key] = set(dests)

    def merge(self, incoming, self_site=None, applied=None):
        mine = set(self.records)
        mine_newest = self.newest()
        theirs = {(e.writer, e.clock) for e in incoming}
        their_newest = {}
        for writer, clock in theirs:
            their_newest[writer] = max(their_newest.get(writer, 0), clock)
        for e in incoming:
            key = (e.writer, e.clock)
            if key in self.records:
                self.records[key] &= e.dests
            elif e.clock >= mine_newest.get(e.writer, 0):  # else (i)
                self.records[key] = set(e.dests)
        for key in sorted(mine - theirs):
            if key[1] < their_newest.get(key[0], 0):  # (ii)
                del self.records[key]
                self.purged += 1
        self.purge(self_site, applied)

    def remove_dests(self, write_dests):
        for rec in self.records.values():
            rec -= write_dests

    def strip(self, write_dests):
        newest = self.newest()
        for key, rec in list(self.records.items()):
            if rec & write_dests:
                rec -= write_dests
                if not rec and newest[key[0]] != key[1]:
                    del self.records[key]
                    self.purged += 1

    def purge(self, self_site=None, applied=None):
        if self_site is not None:
            for (writer, clock), rec in self.records.items():
                if applied[writer] >= clock:
                    rec.discard(self_site)
        newest = self.newest()
        for key in [k for k, rec in self.records.items()
                    if not rec and newest[k[0]] > k[1]]:
            del self.records[key]
            self.purged += 1

    def entries(self):
        return tuple(PiggybackEntry(j, c, frozenset(self.records[j, c]))
                     for j, c in sorted(self.records))

    def dest_counts(self):
        return [len(rec) for rec in self.records.values()]


def _assert_same_log(log, ref):
    assert log.snapshot() == ref.entries()
    assert log.purged_records == ref.purged
    assert log.dest_counts() == ref.dest_counts()  # first-insertion order
    assert len(log) == len(ref.records)
    # the incremental bookkeeping agrees with a scan
    newest = ref.newest()
    assert log._newest == newest
    assert log._clocks == {
        writer: sorted(c for j, c in ref.records if j == writer)
        for writer in newest}  # ascending lists, so sorted as well


def _gating_pairs(view):
    """``(writer, clock)`` of the records a view's gate reads, in order;
    the extras are held emptied (their dests are ∅)."""
    assert all(not e.dests for e in view.extra)
    return [(view.base[i].writer, view.base[i].clock)
            for i in view.regain] + [(e.writer, e.clock) for e in view.extra]


class TestLogProperties:
    @given(entries=entries_strategy, dests=st.frozensets(st.integers(0, 5), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_piggyback_keeps_receiver_gates(self, entries, dests):
        # for every destination d: any record naming d in the original
        # log must still name d in the copy shipped to d
        log = OptTrackLog(entries)
        original = log.snapshot()  # the call strips the log itself
        views, _ = log.piggyback_views(dests)
        for d in dests:
            shipped = {(e.writer, e.clock): e.dests for e in views[d]}
            for e in original:
                if d in e.dests:
                    assert d in shipped[(e.writer, e.clock)]

    @given(entries=entries_strategy, dests=st.frozensets(st.integers(0, 5), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_piggyback_never_adds_destinations(self, entries, dests):
        log = OptTrackLog(entries)
        original = {(e.writer, e.clock): e.dests for e in log.entries()}
        views, base = log.piggyback_views(dests)
        for view in list(views.values()) + [base]:
            for e in view:
                assert e.dests <= original[(e.writer, e.clock)]

    @given(entries=entries_strategy,
           dests=st.frozensets(st.integers(0, 5), max_size=4),
           applied=st.lists(st.integers(0, 9), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_view_delta_answers_match_the_flat_copy(self, entries, dests, applied):
        log = OptTrackLog(entries)
        pre_write = log.snapshot()  # the call strips the log itself
        views, base = log.piggyback_views(dests)
        assert set(views) == set(dests)
        for d in sorted(dests):
            view = views[d]
            flat = tuple(view)
            assert flat == _reference_copy(pre_write, dests, d)
            assert view.base is base
            # the three O(marks) consumers against a walk of the copy
            assert _gating_pairs(view) == [
                (e.writer, e.clock) for e in flat if d in e.dests]
            assert view.blocker(d, applied) == \
                opt_track_entries_blocker(flat, d, applied)
            stripped = tuple(
                PiggybackEntry(e.writer, e.clock, e.dests - {d}) for e in flat)
            assert view.stored(d) == stripped
            assert len(view) == len(flat)
            assert view.dest_total() == sum(len(e.dests) for e in flat)
            # a view built from the flat copy (a decoded SM) agrees,
            # with the receiver given up front or found at first ask
            for rebuilt in (PiggybackView.from_entries(flat, d),
                            PiggybackView.from_entries(flat)):
                assert tuple(rebuilt) == flat and rebuilt == view
                assert len(rebuilt) == len(flat)
                assert rebuilt.dest_total() == view.dest_total()
                assert rebuilt.blocker(d, applied) == view.blocker(d, applied)
                assert _gating_pairs(rebuilt) == _gating_pairs(view)
                assert rebuilt.stored(d) == stripped
                assert tuple(rebuilt) == flat  # asking never changes it

    @given(history=entries_strategy, entries=entries_strategy,
           dests=st.frozensets(st.integers(0, 5), max_size=4),
           site=st.integers(0, 5),
           applied=st.lists(st.integers(0, 9), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_single_pass_write_equals_views_then_strip(
            self, history, entries, dests, site, applied):
        # a log with purged records and condition-1 shrinks behind it, then
        # more records on top (so superseded ∅-records may be present)
        log, ref = OptTrackLog(), _TwoPassLog()
        for e in history:
            log.insert(e.writer, e.clock, e.dests)
            ref.insert(e.writer, e.clock, e.dests)
        log.purge(self_site=site, applied=applied)
        ref.purge(site, applied)
        for e in entries:
            log.insert(e.writer, e.clock, e.dests)
            ref.insert(e.writer, e.clock, e.dests)
        _assert_same_log(log, ref)

        pre_write = log.snapshot()
        views, base = log.piggyback_views(dests)
        assert base == _reference_copy(pre_write, dests, None)
        assert set(views) == set(dests)
        for d in dests:
            assert tuple(views[d]) == _reference_copy(pre_write, dests, d)
            assert views[d].base is base
        # what ships is what the log keeps, record for record
        stored = log.snapshot()
        assert len(stored) == len(base)
        assert all(kept is shipped for kept, shipped in zip(stored, base))

        # the rest of OptTrackProtocol._perform_write, against the old
        # sequence: views, *then* the strip, the own record, the purge
        ref.remove_dests(dests)
        own_clock = 9  # above every clock the strategy draws
        for side in (log, ref):
            side.insert(site, own_clock, dests - {site})
        log.purge(self_site=site, applied=applied)
        ref.purge(site, applied)
        _assert_same_log(log, ref)

    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("insert"), entries_strategy),
        st.tuples(st.just("views"), st.frozensets(st.integers(0, 5),
                                                   max_size=4)),
        st.tuples(st.just("merge"), entries_strategy,
                  st.none() | st.integers(0, 5)),
        st.tuples(st.just("purge"), st.none() | st.integers(0, 5)),
    ), max_size=10), applied=st.lists(st.integers(0, 9), min_size=6,
                                      max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_operation_sequences_match_the_reference(self, steps, applied):
        log, ref = OptTrackLog(), _TwoPassLog()
        for step in steps:
            if step[0] == "insert":
                for e in step[1]:
                    log.insert(e.writer, e.clock, e.dests)
                    ref.insert(e.writer, e.clock, e.dests)
            elif step[0] == "views":
                pre_write = log.snapshot()
                views, base = log.piggyback_views(step[1])
                assert base == _reference_copy(pre_write, step[1], None)
                for d in step[1]:
                    assert tuple(views[d]) == _reference_copy(
                        pre_write, step[1], d)
                ref.strip(step[1])
            elif step[0] == "merge":
                site = step[2]
                kw = ({} if site is None
                      else {"self_site": site, "applied": applied})
                log.merge(step[1], **kw)
                ref.merge(step[1], **kw)
            else:
                site = step[1]
                kw = ({} if site is None
                      else {"self_site": site, "applied": applied})
                log.purge(**kw)
                ref.purge(**kw)
            _assert_same_log(log, ref)

    @given(entries=entries_strategy, other=entries_strategy)
    @settings(max_examples=100, deadline=None)
    def test_merge_monotone_knowledge(self, entries, other):
        # after a merge, every surviving record's destination set is a
        # subset of what either source knew (knowledge only shrinks)
        log = OptTrackLog(entries)
        before = {(e.writer, e.clock): e.dests for e in log.entries()}
        incoming = {(e.writer, e.clock): e.dests for e in other}
        log.merge(other)
        for e in log.entries():
            key = (e.writer, e.clock)
            bounds = [s for s in (before.get(key), incoming.get(key)) if s is not None]
            assert any(e.dests <= b for b in bounds)

    @given(entries=entries_strategy)
    @settings(max_examples=100, deadline=None)
    def test_purge_keeps_newest_per_writer(self, entries):
        log = OptTrackLog(entries)
        writers_before = {e.writer for e in log.entries()}
        log.purge()
        writers_after = {e.writer for e in log.entries()}
        assert writers_before == writers_after

    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_tuple_log_bounded_and_max(self, pairs):
        log = TupleLog()
        for j, c in pairs:
            log.add(j, c)
        assert len(log) <= 4
        for j in {j for j, _ in pairs}:
            assert log.clock_of(j) == max(c for jj, c in pairs if jj == j)


class TestWorkloadProperties:
    @given(
        n=st.integers(1, 6),
        wr=st.floats(0.0, 1.0),
        ops=st.integers(1, 60),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_generator_always_valid(self, n, wr, ops, seed):
        from repro.workload.generator import generate_workload

        wl = generate_workload(n, n_vars=7, write_rate=wr,
                               ops_per_process=ops, seed=seed)
        assert wl.total_operations == n * ops
        assert wl.total_writes + wl.total_reads == wl.total_operations
        for sched in wl.schedules:
            times = [t for t, _ in sched.items]
            assert times == sorted(times)
