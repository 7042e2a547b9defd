"""Unit tests for the closed-form cost models and the trade-off analysis."""

import pytest

from repro.analysis.model import (
    crossover_write_rate,
    full_replication_message_count,
    full_track_total_size,
    message_count_ratio,
    opt_track_crp_total_size,
    opt_track_total_size,
    optp_total_size,
    partial_beats_full,
    partial_replication_message_count,
)
from repro.core.clocks import MatrixClock
from repro.core.messages import FullTrackSM
from repro.memory.store import WriteId
from repro.metrics.sizing import COSTS


class TestMessageCounts:
    def test_full_replication_formula(self):
        assert full_replication_message_count(10, 100) == 900

    def test_partial_formula_matches_paper_table4_n5(self):
        # paper, n=5, w_rate=0.2, 2550 measured ops: full 2036 vs partial 3208
        n, p = 5, 2
        w, r = 510, 2040
        full = full_replication_message_count(n, w)
        partial = partial_replication_message_count(n, p, w, r)
        assert full == pytest.approx(2040)
        assert partial == pytest.approx(3264, rel=0.02)
        assert partial > full  # the one cell where partial loses

    def test_partial_formula_n10(self):
        n, p = 10, 3
        w, r = 1020, 4080
        partial = partial_replication_message_count(n, p, w, r)
        assert partial == pytest.approx(8466, rel=0.01)  # paper reports 8297

    def test_reads_free_under_full_replication(self):
        assert full_replication_message_count(8, 10, r=1000) == (
            full_replication_message_count(8, 10, r=0)
        )

    def test_p_equals_n_means_no_fetches(self):
        n = 7
        # with p = n every read is local: count reduces to the full-
        # replication write cost
        assert partial_replication_message_count(n, n, 50, 50) == (
            full_replication_message_count(n, 50)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_replication_message_count(5, 0, 1, 1)
        with pytest.raises(ValueError):
            partial_replication_message_count(5, 6, 1, 1)
        with pytest.raises(ValueError):
            partial_replication_message_count(5, 2, -1, 1)


class TestSizeModels:
    def test_full_track_quadratic_in_n(self):
        s10 = full_track_total_size(10, 3, 100, 100).sm_bytes
        s20 = full_track_total_size(20, 6, 100, 100).sm_bytes
        # per-message size is ~8n^2: doubling n quadruples the dominant term
        per10 = s10 / full_track_total_size(10, 3, 100, 100).sm_count
        per20 = s20 / full_track_total_size(20, 6, 100, 100).sm_count
        m = COSTS
        for n, per in ((10, per10), (20, per20)):
            sm = FullTrackSM(0, 1, WriteId(0, 1), MatrixClock(n))
            assert per == sm.metadata_size()
        assert (per20 - m.envelope_full_track - m.var_id - m.value) == pytest.approx(
            4 * (per10 - m.envelope_full_track - m.var_id - m.value)
        )

    def test_opt_track_linear_default(self):
        # per-message size with the default amortized-O(n) log is linear in n
        def per(n, p):
            cb = opt_track_total_size(n, p, 1, 0)
            return cb.sm_bytes / cb.sm_count

        assert per(40, 12) - per(20, 6) == pytest.approx(2 * (per(20, 6) - per(10, 3)))

    def test_opt_track_calibrated_by_measurement(self):
        cb = opt_track_total_size(10, 3, 100, 0,
                                  amortized_log_entries=20, mean_dests_per_entry=2)
        m = COSTS
        expected_log = 20 * (m.log_entry_overhead + 2 * m.dest_id)
        assert cb.sm_bytes / cb.sm_count == pytest.approx(
            m.envelope_opt_track + m.var_id + m.value + m.site_id + m.clock
            + expected_log
        )

    def test_crp_flat_in_n(self):
        per = lambda n: (
            opt_track_crp_total_size(n, 10).sm_bytes
            / opt_track_crp_total_size(n, 10).sm_count
        )
        assert per(40) == per(5)  # O(d): independent of n

    def test_optp_linear_in_n(self):
        m = COSTS
        per = lambda n: (
            optp_total_size(n, 10).sm_bytes / optp_total_size(n, 10).sm_count
        )
        assert per(40) - per(5) == 35 * m.vector_entry

    def test_breakdown_totals(self):
        cb = full_track_total_size(10, 3, 50, 50)
        assert cb.total_count == pytest.approx(
            partial_replication_message_count(10, 3, 50, 50)
        )
        assert cb.total_bytes == cb.sm_bytes + cb.fm_bytes + cb.rm_bytes


class TestCrossover:
    def test_threshold_formula(self):
        assert crossover_write_rate(9) == pytest.approx(0.2)
        assert crossover_write_rate(3) == pytest.approx(0.5)

    def test_partial_beats_full_strictness(self):
        # exactly at eq. (1) equality, partial does not strictly win
        n, p = 9, 3
        w, r = 2.0, 8.0  # w = 2r/(n-1) exactly
        assert not partial_beats_full(n, p, w, r)
        assert partial_beats_full(n, p, w + 0.01, r)

    def test_threshold_independent_of_p(self):
        n = 10
        wr = crossover_write_rate(n) + 0.01
        w, r = wr * 100, (1 - wr) * 100
        for p in range(1, n):
            assert partial_beats_full(n, p, w, r)

    def test_ratio_below_one_above_threshold(self):
        n, p = 20, 6
        assert message_count_ratio(n, p, 0.5) < 1.0
        assert message_count_ratio(n, p, 0.05) > 1.0

    def test_ratio_pure_read_is_infinite(self):
        assert message_count_ratio(10, 3, 0.0) == float("inf")

    def test_paper_table4_predictions(self):
        # eq. (2): at n=5 threshold is 1/3 -> 0.2 loses, 0.5 and 0.8 win
        assert crossover_write_rate(5) == pytest.approx(1 / 3)
        assert not 0.2 > crossover_write_rate(5)
        assert 0.5 > crossover_write_rate(5)
        # at n >= 10 the threshold is below 0.2: partial always wins
        for n in (10, 20, 30, 40):
            assert 0.2 > crossover_write_rate(n)
