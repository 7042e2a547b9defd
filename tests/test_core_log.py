"""Unit tests for the Opt-Track KS-style log and the CRP tuple log."""

from random import Random

import pytest

from repro.core.log import OptTrackLog, PiggybackEntry, TupleLog
from repro.loopback import LoopbackCluster
from repro.service.bootstrap import default_topology


def entry(j, c, *dests):
    return PiggybackEntry(j, c, frozenset(dests))


def owner_writes_run(ops, n_sites=5, n_vars=100, seed=1):
    """The ``repro loadgen`` mix on the deterministic loopback cluster:
    site ``k % n`` issues op ``k``, half PUTs to a variable it owns
    (``v % n == site``), half GETs of any variable.  Returns the largest
    log any site held after any op, and the settled cluster."""
    cluster = LoopbackCluster(default_topology(
        n_sites, protocol="opt-track", n_vars=n_vars, replication_factor=2))
    rng = Random(seed)
    peak = 0
    for k in range(ops):
        site = k % n_sites
        if rng.random() < 0.5:
            owned = range(site, n_vars, n_sites)
            cluster.write(site, owned[rng.randrange(len(owned))], k)
        else:
            cluster.read(site, rng.randrange(n_vars))
        peak = max(peak, max(len(node.protocol.log) for node in cluster.nodes))
    cluster.settle()
    return peak, cluster


class TestInsertAndMergeRules:
    def test_insert_new_record(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2})
        assert log.dests_of(0, 1) == {1, 2}
        assert len(log) == 1

    def test_duplicate_insert_intersects(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2, 3})
        log.insert(0, 1, {2, 3, 4})
        assert log.dests_of(0, 1) == {2, 3}

    def test_merge_unions_distinct_records(self):
        log = OptTrackLog()
        log.insert(0, 1, {1})
        log.merge([entry(1, 1, 2), entry(2, 3, 4)])
        assert len(log) == 3

    def test_merge_intersects_duplicates(self):
        log = OptTrackLog()
        log.insert(0, 5, {1, 2})
        log.merge([entry(0, 5, 2, 3)])
        assert log.dests_of(0, 5) == {2}

    def test_empty_marker_in_merge_clears_stale_dests(self):
        # the newest-per-writer empty record shipped by a peer lets this
        # site drop its own stale destination knowledge
        log = OptTrackLog()
        log.insert(0, 5, {1, 2, 3})
        log.insert(0, 9, {4})  # newer record keeps writer 0 "alive"
        log.merge([entry(0, 5)])
        assert (0, 5) not in log  # emptied and superseded -> purged


class TestImplicitTracking:
    """KS MERGE: a log holding writer z's record at t' and lacking z's
    record at t < t' knows the latter dead; a plain union re-imports it
    or keeps it."""

    def test_clause_i_skips_an_incoming_record_older_than_the_newest_here(self):
        log = OptTrackLog()
        log.insert(0, 5, {3})
        log.merge([entry(0, 2, 4), entry(1, 1, 4)])
        assert (0, 2) not in log  # dead here: skipped, not re-imported
        assert (1, 1) in log  # nothing newer of writer 1 here: joins
        assert log.purged_records == 0  # it never entered
        # a record both logs hold is intersected, old or not
        log.insert(0, 3, {4, 6})
        log.merge([entry(0, 3, 6)])
        assert log.dests_of(0, 3) == {6}

    def test_clause_ii_deletes_a_record_older_than_the_newest_incoming(self):
        log = OptTrackLog()
        log.insert(0, 2, {4})
        log.insert(0, 3, {5})  # carried by the incoming log: stays
        log.insert(0, 9, {6})  # newer than anything incoming: stays
        log.insert(1, 4, {4})  # writer 1 not named by the incoming log
        log.merge([entry(0, 3, 5), entry(0, 5, 3)])
        assert (0, 2) not in log and log.purged_records == 1
        # (0, 5) is older than (0, 9): clause (i) keeps it out
        assert [(e.writer, e.clock) for e in log.entries()] == [
            (0, 3), (0, 9), (1, 4)]
        assert log.max_clock(0) == 9

    def test_merge_is_order_independent(self):
        # both sides are judged as they were before the merge: an older
        # live record listed after its writer's newer one still joins
        log = OptTrackLog()
        log.insert(0, 3, {1})
        log.merge([entry(0, 7, 2), entry(0, 5, 4)])
        assert [(e.writer, e.clock, set(e.dests)) for e in log.entries()] == [
            (0, 5, {4}), (0, 7, {2})]
        assert log.max_clock(0) == 7 and log.purged_records == 1


class TestConditionTwoAtSend:
    """``piggyback_views`` strips the sender's own log in the same walk
    that builds the views (there is no separate ``remove_dests``)."""

    def test_piggyback_views_strips_the_stored_log(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2})
        log.insert(1, 4, {2, 3})
        _, base = log.piggyback_views(frozenset({2}))
        assert log.dests_of(0, 1) == {1}
        assert log.dests_of(1, 4) == {3}
        # the stripped record that ships is the record the log keeps
        assert log.snapshot() == base
        assert all(kept is shipped for kept, shipped in zip(log.entries(), base))

    def test_empty_write_dests_leave_the_log_alone(self):
        log = OptTrackLog()
        log.insert(0, 1, {1})
        before = log.snapshot()
        views, base = log.piggyback_views(frozenset())
        assert views == {} and base == before
        assert log.dests_of(0, 1) == {1}
        assert all(a is b for a, b in zip(log.entries(), before))

    def test_dead_record_dropped_and_tombstoned_on_the_spot(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})  # dies under the strip, superseded by (0, 9)
        log.insert(0, 9, {7})
        log.insert(4, 7, {2})  # empties too, but is writer 4's newest
        views, base = log.piggyback_views(frozenset({2, 3}))
        assert views[2].extra == ((0, 1),)
        assert (0, 1) not in log and log.purged_records == 1
        log.merge([entry(0, 1, 2)])  # older than (0, 9): cannot return
        assert [(e.writer, e.clock, set(e.dests)) for e in log.entries()] == [
            (0, 9, {7}), (4, 7, set())]
        # the kept ∅-marker is a purge candidate once superseded
        log.insert(4, 8, {5})
        log.purge()
        assert (4, 7) not in log and log.purged_records == 2

    def test_replaced_record_keeps_its_slot(self):
        # dest_counts() feeds an order-dependent running stat: a shrink
        # must not move the record to the end of the insertion order
        log = OptTrackLog()
        log.insert(5, 1, {1, 2, 3})
        log.insert(0, 1, {4})
        log.insert(3, 1, {2, 6})
        log.piggyback_views(frozenset({2}))
        assert log.dest_counts() == [2, 1, 1]
        log.merge([entry(5, 1, 3)])
        log.purge(self_site=6, applied=[0, 0, 0, 1])
        assert log.dest_counts() == [1, 1, 0]


class TestPurge:
    def test_superseded_empty_records_removed(self):
        log = OptTrackLog()
        log.insert(0, 1, set())
        log.insert(0, 2, {3})
        log.purge()
        assert (0, 1) not in log
        assert (0, 2) in log

    def test_newest_empty_record_kept(self):
        log = OptTrackLog()
        log.insert(0, 2, set())
        log.purge()
        assert (0, 2) in log  # most recent from writer 0: keep even empty

    def test_condition_one_strips_self_when_applied(self):
        log = OptTrackLog()
        log.insert(0, 3, {5, 6})
        log.purge(self_site=5, applied=[3, 0])  # writer 0 applied up to 3 at site 5
        assert log.dests_of(0, 3) == {6}

    def test_condition_one_respects_apply_clock(self):
        log = OptTrackLog()
        log.insert(0, 3, {5})
        log.purge(self_site=5, applied=[2, 0])  # only clock 2 applied: keep
        assert log.dests_of(0, 3) == {5}


class TestTombstones:
    """No tombstone set: the newest record of a writer is the tombstone
    of every older record of it this log lacks."""

    def test_dropped_record_never_returns(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.piggyback_views(frozenset({2}))
        # (0,1) now empty and superseded -> dropped
        assert (0, 1) not in log
        # stale re-import from an old LastWriteOn
        log.merge([entry(0, 1, 2, 4)])
        assert (0, 1) not in log and len(log) == 1

    def test_merge_cannot_reinfect(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.piggyback_views(frozenset({2}))
        log.merge([entry(0, 1, 2)])
        assert (0, 1) not in log

    def test_tombstone_not_counted_in_size(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.piggyback_views(frozenset({2}))
        assert len(log) == 1


class TestPiggybackViews:
    def test_receiver_kept_others_stripped(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2, 9})
        views, base = log.piggyback_views(frozenset({1, 2}))
        # copy to 1 keeps 1 (its own gate) but not co-destination 2
        (e1,) = views[1]
        assert e1.dests == {1, 9}
        (e2,) = views[2]
        assert e2.dests == {2, 9}
        # shared/stored view strips both
        (eb,) = base
        assert eb.dests == {9}

    def test_dead_records_not_shipped(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})  # will empty under stripping
        log.insert(0, 9, {7})  # newest from writer 0
        views, base = log.piggyback_views(frozenset({2, 3}))
        # stored view omits the dead (0,1) record
        assert [(e.writer, e.clock) for e in base] == [(0, 9)]
        # but the copy to 2 still carries its gate
        assert any(e.clock == 1 and e.dests == {2} for e in views[2])
        # the copy to 3 has no use for it
        assert all(e.clock != 1 for e in views[3])

    def test_newest_empty_marker_ships(self):
        log = OptTrackLog()
        log.insert(4, 7, {2})
        views, base = log.piggyback_views(frozenset({2}))
        # stripping empties it, but it is the newest from writer 4:
        # shipped as a marker
        assert [(e.writer, e.clock, set(e.dests)) for e in base] == [(4, 7, set())]

    def test_views_match_per_destination_stripping(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2, 5})
        log.insert(3, 2, {2})
        log.insert(3, 4, {5})
        D = frozenset({1, 2})
        views, base = log.piggyback_views(D)
        # each copy strips the co-destinations but keeps its receiver;
        # (3, 2) dies under stripping and rides only on the copy to 2
        assert tuple(views[1]) == (entry(0, 1, 1, 5), entry(3, 4, 5))
        assert tuple(views[2]) == (
            entry(0, 1, 2, 5), entry(3, 4, 5), entry(3, 2, 2))
        assert base == (entry(0, 1, 5), entry(3, 4, 5))

    def test_views_share_structure_when_possible(self):
        log = OptTrackLog()
        log.insert(0, 1, {9})  # mentions no multicast destination
        log.insert(0, 2, {1, 9})  # regained by the copy to 1 only
        views, base = log.piggyback_views(frozenset({1, 2}))
        # one stripped log under every copy, named or not
        assert views[1].base is base and views[2].base is base
        assert views[2] == base and views[2].stored(2) is base
        assert views[1] != base and views[1].stored(1) is base


class TestOneRecordStore:
    """The shipping form is the store: records are replaced, never
    mutated, so nothing already shipped can change under its holder."""

    def test_shipped_tuple_survives_later_shrinks(self):
        from repro.check.sanitizer import fingerprint

        log = OptTrackLog()
        log.insert(0, 1, {1, 2, 3})
        log.insert(0, 2, {3})
        log.insert(1, 1, {2, 4})
        log.insert(2, 5, {3, 4})
        views, base = log.piggyback_views(frozenset({1}))
        snap = log.snapshot()
        shipped = {"base": base, "snap": snap, "flat": tuple(views[1])}
        before = {name: (tuple(t), [e.dests for e in t], fingerprint(t))
                  for name, t in shipped.items()}
        view_print = fingerprint(views[1])
        # every way the log shrinks: a later write's strip (which also
        # kills (0, 1)), a merge intersection, condition 1, a purge
        log.piggyback_views(frozenset({2, 3}))
        log.merge([entry(2, 5, 3), entry(1, 1)], self_site=4,
                  applied=[0, 0, 9])
        log.insert(1, 2, {6})
        log.purge()
        assert log.snapshot() == (entry(0, 2), entry(1, 2, 6), entry(2, 5))
        for name, t in shipped.items():
            records, dests, digest = before[name]
            assert all(a is b for a, b in zip(t, records))  # same objects
            assert [e.dests for e in t] == dests
            assert fingerprint(t) == digest
        assert fingerprint(views[1]) == view_print

    def test_record_learned_in_merge_is_the_incoming_object(self):
        log = OptTrackLog()
        incoming = entry(3, 1, 4, 5)
        log.merge([incoming])
        assert next(log.entries()) is incoming
        assert log.snapshot()[0] is incoming
        views, base = log.piggyback_views(frozenset({9}))
        assert base[0] is incoming  # shipped on untouched, no re-freeze

    def test_record_with_unfrozen_dests_is_stored_frozen(self):
        log = OptTrackLog()
        dests = {4, 5}
        incoming = PiggybackEntry(3, 1, dests)
        log.merge([incoming])
        (stored,) = log.entries()
        assert stored is not incoming and stored == entry(3, 1, 4, 5)
        assert type(stored.dests) is frozenset
        dests.discard(4)  # the caller's set is not aliased into the log
        assert log.dests_of(3, 1) == {4, 5}

    def test_duplicate_with_nothing_new_keeps_the_stored_object(self):
        log = OptTrackLog()
        first = entry(3, 1, 4)
        log.merge([first])
        log.merge([entry(3, 1, 4, 5), entry(3, 1, 4)])
        assert next(log.entries()) is first


class TestLogMisc:
    def test_entries_sorted(self):
        log = OptTrackLog()
        log.insert(1, 2, {0})
        log.insert(0, 5, {0})
        log.insert(0, 1, {0})
        keys = [(e.writer, e.clock) for e in log.entries()]
        assert keys == [(0, 1), (0, 5), (1, 2)]

    def test_max_clock(self):
        log = OptTrackLog()
        assert log.max_clock(0) == 0
        log.insert(0, 3, {1})
        log.insert(0, 7, {1})
        assert log.max_clock(0) == 7

    def test_snapshot_and_copy_independent(self):
        log = OptTrackLog()
        log.insert(0, 1, {1})
        snap = log.snapshot()
        copy = log.copy()
        log.piggyback_views(frozenset({1}))
        assert log.dests_of(0, 1) == set()
        assert snap[0].dests == {1}
        assert copy.dests_of(0, 1) == {1}

    def test_copy_round_trips_tombstones_and_order(self):
        log = OptTrackLog()
        log.insert(3, 1, {1, 2})
        log.insert(0, 1, {2})
        log.insert(0, 2, {5})
        log.piggyback_views(frozenset({2}))  # drops (0, 1)
        log.insert(1, 1, set())  # learned after the last sort
        copy = log.copy()
        assert copy.snapshot() == log.snapshot()
        assert copy.dest_counts() == log.dest_counts() == [1, 1, 0]
        assert copy.purged_records == log.purged_records == 1
        copy.merge([entry(0, 1, 2)])
        assert (0, 1) not in copy  # (0, 2) came along and keeps it out
        # and the two are independent from here on
        copy.insert(1, 2, {4})
        copy.purge()
        assert (1, 1) in log and (1, 1) not in copy
        copy.merge([entry(3, 2)])  # clause (ii) reads the copy's clocks
        assert (3, 1) in log and (3, 1) not in copy
        assert [(e.writer, e.clock) for e in log.entries()] == [
            (0, 2), (1, 1), (3, 1)]

    def test_dest_counts(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2})
        log.insert(1, 1, set())
        assert sorted(log.dest_counts()) == [0, 2]


class TestBoundedState:
    """Under the owner-writes mix a variable is rewritten only by its
    owner, so stale LastWriteOn logs are read for ever; a plain-union
    MERGE let their records back in and the log grew with run length."""

    def test_log_size_is_flat_in_op_count(self):
        single, _ = owner_writes_run(400)
        double, _ = owner_writes_run(800)
        assert double == single  # a plain union: 23 -> 52

    def test_no_per_key_state_beyond_the_live_records(self):
        _, cluster = owner_writes_run(800)
        for node in cluster.nodes:
            log = node.protocol.log
            log.snapshot()  # settles the lazily sorted key list
            # no collection outgrows the live records ...
            for slot in OptTrackLog.__slots__:
                value = getattr(log, slot)
                if isinstance(value, (set, dict, list)):
                    assert len(value) <= len(log), slot
            assert sum(map(len, log._clocks.values())) == len(log)
            # ... though the run let go of far more keys than it keeps
            assert log.purged_records > 10 * len(log)


class TestTupleLog:
    def test_add_keeps_max_per_writer(self):
        log = TupleLog()
        log.add(0, 3)
        log.add(0, 1)  # older: ignored
        log.add(0, 5)
        assert log.entries() == ((0, 5),)

    def test_reset_to_singleton(self):
        log = TupleLog()
        log.add(1, 2)
        log.add(2, 9)
        log.reset(0, 4)
        assert log.entries() == ((0, 4),)
        assert len(log) == 1

    def test_merge(self):
        log = TupleLog([(0, 1)])
        log.merge([(0, 5), (1, 2)])
        assert log.entries() == ((0, 5), (1, 2))

    def test_clock_of(self):
        log = TupleLog([(3, 7)])
        assert log.clock_of(3) == 7
        assert log.clock_of(0) == 0

    def test_bounded_by_writers(self):
        log = TupleLog()
        for c in range(100):
            log.add(c % 4, c + 1)
        assert len(log) == 4
