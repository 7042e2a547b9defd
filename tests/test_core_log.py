"""Unit tests for the Opt-Track KS-style log and the CRP tuple log."""

import pytest

from repro.core.log import OptTrackLog, PiggybackEntry, TupleLog


def entry(j, c, *dests):
    return PiggybackEntry(j, c, frozenset(dests))


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


class TestConditionTwoAtSend:
    def test_remove_dests_strips_everywhere(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2})
        log.insert(1, 4, {2, 3})
        log.remove_dests({2})
        assert log.dests_of(0, 1) == {1}
        assert log.dests_of(1, 4) == {3}

    def test_remove_dests_empty_set_noop(self):
        log = OptTrackLog()
        log.insert(0, 1, {1})
        log.remove_dests(set())
        assert log.dests_of(0, 1) == {1}


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
    def test_emptied_record_never_returns(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.remove_dests({2})
        log.purge()  # (0,1) now empty and superseded -> tombstoned
        assert (0, 1) not in log
        log.insert(0, 1, {2, 4})  # stale re-import from an old LastWriteOn
        assert (0, 1) not in log

    def test_merge_cannot_reinfect(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.remove_dests({2})
        log.purge()
        log.merge([entry(0, 1, 2)])
        assert (0, 1) not in log

    def test_tombstone_not_counted_in_size(self):
        log = OptTrackLog()
        log.insert(0, 1, {2})
        log.insert(0, 2, {3})
        log.remove_dests({2})
        log.purge()
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
        log.remove_dests({1})
        assert snap[0].dests == {1}
        assert copy.dests_of(0, 1) == {1}

    def test_dest_counts(self):
        log = OptTrackLog()
        log.insert(0, 1, {1, 2})
        log.insert(1, 1, set())
        assert sorted(log.dest_counts()) == [0, 2]


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
