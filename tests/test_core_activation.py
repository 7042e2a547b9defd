"""Truth-table tests for the activation gates (A_OPT variants).

A gate answers ``None`` when it holds, the first unmet ``(writer,
threshold)`` when it is blocked, and ``RETEST`` only on a FIFO overshoot.
"""

from repro.core.activation import (
    RETEST,
    crp_sm_blocker,
    full_track_rm_blocker,
    full_track_sm_blocker,
    opt_track_entries_blocker,
    optp_sm_blocker,
)
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry


def entry(j, c, *dests):
    return PiggybackEntry(j, c, frozenset(dests))


class TestFullTrackSM:
    def test_first_message_from_sender_applies_immediately(self):
        m = MatrixClock(3)
        m.increment(0, [1, 2])  # the message itself
        assert full_track_sm_blocker(m, sender=0, site=1, applied_counts=[0, 0, 0]) is None

    def test_waits_for_earlier_send_from_same_sender(self):
        m = MatrixClock(3)
        m.increment(0, [1])  # earlier write by 0 destined to 1
        m.increment(0, [1])  # the message itself
        applied = [0, 0, 0]
        assert full_track_sm_blocker(m, 0, 1, applied) == (0, 1)
        applied[0] = 1
        assert full_track_sm_blocker(m, 0, 1, applied) is None

    def test_waits_for_causally_earlier_write_from_third_party(self):
        m = MatrixClock(3)
        m.increment(2, [1])  # write by 2 to site 1, causally before
        m.increment(0, [1])  # the message itself
        applied = [0, 0, 0]
        assert full_track_sm_blocker(m, 0, 1, applied) == (2, 1)
        applied[2] = 1
        assert full_track_sm_blocker(m, 0, 1, applied) is None

    def test_ignores_writes_destined_elsewhere(self):
        m = MatrixClock(3)
        m.increment(2, [0])  # destined to site 0, not to receiver 1
        m.increment(0, [1])
        assert full_track_sm_blocker(m, 0, 1, [0, 0, 0]) is None


class TestFullTrackRM:
    def test_ready_when_column_covered(self):
        m = MatrixClock(3)
        m.increment(2, [1])
        applied = [0, 0, 0]
        assert full_track_rm_blocker(m, 1, applied) == (2, 1)
        applied[2] = 1
        assert full_track_rm_blocker(m, 1, applied) is None

    def test_empty_matrix_is_ready(self):
        assert full_track_rm_blocker(MatrixClock(3), 1, [0, 0, 0]) is None


class TestOptTrack:
    def test_empty_log_ready(self):
        assert opt_track_entries_blocker([], 1, [0, 0, 0]) is None

    def test_entry_naming_site_gates(self):
        applied = [0, 0, 0]
        entries = [entry(0, 2, 1)]
        assert opt_track_entries_blocker(entries, 1, applied) == (0, 2)
        applied[0] = 2
        assert opt_track_entries_blocker(entries, 1, applied) is None

    def test_higher_applied_clock_satisfies(self):
        assert opt_track_entries_blocker([entry(0, 3, 1)], 1, [5, 0, 0]) is None

    def test_entry_naming_other_sites_ignored(self):
        assert opt_track_entries_blocker([entry(0, 9, 2)], 1, [0, 0, 0]) is None

    def test_empty_dest_marker_ignored(self):
        assert opt_track_entries_blocker([entry(0, 9)], 1, [0, 0, 0]) is None

    def test_all_entries_must_pass(self):
        applied = [5, 0, 0]
        entries = [entry(0, 3, 1), entry(2, 1, 1)]
        assert opt_track_entries_blocker(entries, 1, applied) == (2, 1)
        applied[2] = 1
        assert opt_track_entries_blocker(entries, 1, applied) is None


class TestCRP:
    def test_fifo_gap_blocks(self):
        applied = [0, 0]
        assert crp_sm_blocker(0, 1, [], applied) is None
        assert crp_sm_blocker(0, 2, [], applied) == (0, 1)  # clock 1 missing

    def test_already_applied_blocks(self):
        # a duplicate would regress: no threshold ends it, so re-test
        assert crp_sm_blocker(0, 3, [], [3, 0]) is RETEST

    def test_dependencies_must_be_applied(self):
        applied = [0, 0]
        assert crp_sm_blocker(0, 1, [(1, 2)], applied) == (1, 2)
        applied[1] = 2
        assert crp_sm_blocker(0, 1, [(1, 2)], applied) is None


class TestOptP:
    def test_next_in_fifo_with_no_deps(self):
        v = VectorClock(3, [1, 0, 0])
        assert optp_sm_blocker(0, v, [0, 0, 0]) is None

    def test_fifo_gap_blocks(self):
        v = VectorClock(3, [2, 0, 0])
        assert optp_sm_blocker(0, v, [0, 0, 0]) == (0, 1)
        assert optp_sm_blocker(0, v, [2, 0, 0]) is RETEST  # overshoot

    def test_third_party_dependency_blocks(self):
        v = VectorClock(3, [1, 0, 2])
        applied = [0, 0, 0]
        assert optp_sm_blocker(0, v, applied) == (2, 2)
        applied[2] = 2
        assert optp_sm_blocker(0, v, applied) is None

    def test_applied_beyond_dependency_ok(self):
        v = VectorClock(3, [1, 0, 2])
        assert optp_sm_blocker(0, v, [0, 4, 5]) is None
