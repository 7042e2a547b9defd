"""Tests for the session-guarantee checkers.

Each guarantee is tested in both directions: real protocol executions
must satisfy it, and a hand-constructed counterexample must be flagged.
"""

import pytest

from repro import AdversarialLatency, SimulationConfig, run_simulation
from repro.memory.store import WriteId
from repro.verify.history import HistoryRecorder
from repro.verify.sessions import (
    check_all_session_guarantees,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
)


def w(h, t, site, var, value, clock):
    h.record_write_op(time=t, site=site, var=var, value=value,
                      write_id=WriteId(site, clock))
    return (site, clock)


def r(h, t, site, var, value, wid):
    h.record_read_op(time=t, site=site, var=var, value=value,
                     write_id=WriteId(*wid) if wid else None)


def ap(h, t, site, var, wid):
    h.record_apply(time=t, site=site, var=var, write_id=WriteId(*wid))


class TestReadYourWrites:
    def test_reading_own_write_ok(self):
        h = HistoryRecorder()
        wid = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 0, 0, "a", wid)
        assert check_read_your_writes(h) == []

    def test_reading_newer_value_ok(self):
        h = HistoryRecorder()
        own = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", own)
        newer = w(h, 3, 1, 0, "b", 1)   # causally after own (via the read)
        r(h, 4, 0, 0, "b", newer)
        assert check_read_your_writes(h) == []

    def test_reading_concurrent_value_ok(self):
        # causal memory permits returning a write concurrent with one's own
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        other = w(h, 1, 1, 0, "b", 1)   # concurrent with site 0's write
        r(h, 2, 0, 0, "b", other)
        assert check_read_your_writes(h) == []

    def test_bottom_after_own_write_flagged(self):
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        r(h, 2, 0, 0, None, None)
        assert len(check_read_your_writes(h)) == 1

    def test_reading_causal_ancestor_of_own_write_flagged(self):
        h = HistoryRecorder()
        old = w(h, 1, 1, 0, "old", 1)
        r(h, 2, 0, 0, "old", old)       # site 0 reads it ...
        w(h, 3, 0, 0, "new", 1)         # ... overwrites it ...
        r(h, 4, 0, 0, "old", old)       # ... then reads the ancestor again
        assert len(check_read_your_writes(h)) == 1


class TestMonotonicReads:
    def test_forward_progress_ok(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 0, "b", 2)
        r(h, 3, 1, 0, "a", w1)
        r(h, 4, 1, 0, "b", w2)
        assert check_monotonic_reads(h) == []

    def test_regression_flagged(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 0, "b", 2)
        r(h, 3, 1, 0, "b", w2)
        r(h, 4, 1, 0, "a", w1)   # regressed to a causal ancestor
        assert len(check_monotonic_reads(h)) == 1

    def test_bottom_after_value_flagged(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", w1)
        r(h, 3, 1, 0, None, None)
        assert len(check_monotonic_reads(h)) == 1

    def test_switch_between_concurrent_values_ok(self):
        h = HistoryRecorder()
        wa = w(h, 1, 0, 0, "a", 1)
        wb = w(h, 1, 1, 0, "b", 1)   # concurrent
        r(h, 2, 2, 0, "a", wa)
        r(h, 3, 2, 0, "b", wb)       # moving across concurrents is legal
        assert check_monotonic_reads(h) == []


class TestMonotonicWrites:
    def test_in_order_applies_ok(self):
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        w(h, 2, 0, 1, "b", 2)
        ap(h, 3, 1, 0, (0, 1))
        ap(h, 4, 1, 1, (0, 2))
        assert check_monotonic_writes(h) == []

    def test_out_of_order_applies_flagged(self):
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        w(h, 2, 0, 1, "b", 2)
        ap(h, 3, 1, 1, (0, 2))
        ap(h, 4, 1, 0, (0, 1))
        assert len(check_monotonic_writes(h)) == 1


class TestWritesFollowReads:
    def test_ordered_applies_ok(self):
        h = HistoryRecorder()
        source = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", source)
        follow = w(h, 3, 1, 1, "b", 1)
        for site in (2, 3):
            ap(h, 4, site, 0, source)
            ap(h, 5, site, 1, follow)
        assert check_writes_follow_reads(h) == []

    def test_inverted_applies_flagged(self):
        h = HistoryRecorder()
        source = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", source)
        follow = w(h, 3, 1, 1, "b", 1)
        ap(h, 4, 2, 1, follow)    # successor applied first
        ap(h, 5, 2, 0, source)
        assert len(check_writes_follow_reads(h)) == 1

    def test_a_repeated_apply_counts_at_its_last_apply(self):
        h = HistoryRecorder()
        c = w(h, 1, 0, 2, "c", 1)
        r(h, 2, 1, 2, "c", c)
        a = w(h, 3, 1, 0, "a", 1)
        b = w(h, 4, 2, 1, "b", 1)
        for t, (var, wid) in enumerate([(0, a), (1, b), (0, a), (2, c)]):
            ap(h, 5 + t, 3, var, wid)
        assert check_writes_follow_reads(h) == [
            "site 3 applied (1, 1) (writes-follow-reads successor) "
            "before (0, 1)"]

    def test_a_reread_source_is_reported_once(self):
        h = HistoryRecorder()
        source = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", source)
        r(h, 3, 1, 0, "a", source)
        follow = w(h, 4, 1, 1, "b", 1)
        ap(h, 5, 2, 1, follow)
        ap(h, 6, 2, 0, source)
        assert check_writes_follow_reads(h) == [
            "site 2 applied (1, 1) (writes-follow-reads successor) "
            "before (0, 1)"]

    def test_cyclic_history_and_unknown_source_raise(self):
        h = HistoryRecorder()
        r(h, 1, 0, 0, "b", (1, 1))   # reads a write issued after ...
        w(h, 2, 0, 0, "a", 1)
        r(h, 3, 1, 0, "a", (0, 1))   # ... a read of this one
        w(h, 4, 1, 0, "b", 1)
        with pytest.raises(ValueError, match="cyclic"):
            check_writes_follow_reads(h)
        h = HistoryRecorder()
        r(h, 1, 0, 0, "x", (5, 1))
        with pytest.raises(ValueError, match="unknown write"):
            check_writes_follow_reads(h)


class TestProtocolsSatisfyAllGuarantees:
    @pytest.mark.parametrize("protocol",
                             ["full-track", "opt-track", "opt-track-crp", "optp"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_real_runs_pass_everything(self, protocol, seed):
        cfg = SimulationConfig(
            protocol=protocol, n_sites=6, n_vars=8, write_rate=0.5,
            ops_per_process=35, seed=seed, latency=AdversarialLatency(),
            record_history=True,
        )
        result = run_simulation(cfg)
        report = check_all_session_guarantees(result.history)
        for guarantee, violations in report.items():
            assert violations == [], (protocol, guarantee, violations[:3])
