"""Unit tests for the size model, statistics, and the metrics collector."""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.core.clocks import MatrixClock, VectorClock
from repro.core import messages
from repro.core.log import OptTrackLog, PiggybackEntry
from repro.core.messages import (
    CRPSM,
    PRICE_TABLE,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)
from repro.memory.store import WriteId
from repro.metrics.collector import MessageKind, MetricsCollector
from repro.metrics.sizing import COSTS, SizeModel
from repro.metrics.stats import RunningStat, percentile, summarize


def optp_sm(n):
    return OptPSM(0, 1, WriteId(0, 1), VectorClock(n))


def full_track_sm(n):
    return FullTrackSM(0, 1, WriteId(0, 1), MatrixClock(n))


def opt_track_sm(dest_counts):
    """An Opt-Track SM whose log records name ``dest_counts[i]`` sites."""
    return OptTrackSM(0, 1, WriteId(0, 1), tuple(
        PiggybackEntry(0, c + 1, frozenset(range(1, d + 1)))
        for c, d in enumerate(dest_counts)))


class TestSizeModel:
    def test_matrix_clock_quadratic(self):
        m = COSTS
        assert (full_track_sm(40).metadata_size()
                - full_track_sm(5).metadata_size()) == (1600 - 25) * m.matrix_entry
        assert full_track_sm(5).metadata_size() == (
            m.envelope_full_track + m.var_id + m.value + 25 * m.matrix_entry)

    def test_vector_clock_linear(self):
        m = COSTS
        assert optp_sm(40).metadata_size() == (
            m.envelope_optp + m.var_id + m.value + 40 * m.vector_entry)

    def test_calibration_full_track_sm_n5(self):
        # calibrated against the paper's Table II: ~518 bytes at n=5
        assert abs(full_track_sm(5).metadata_size() - 518) <= 10

    def test_calibration_optp_sm(self):
        # Table III: optP SM = 259 at n=5, 609 at n=40 (209 + 10 n)
        assert optp_sm(5).metadata_size() == 259
        assert optp_sm(40).metadata_size() == 609

    def test_opt_track_log_cost(self):
        m = COSTS
        assert (opt_track_sm([2, 0, 1]).metadata_size()
                - opt_track_sm([]).metadata_size()) == (
            3 * m.log_entry_overhead + 3 * m.dest_id)

    def test_shape_matches_per_entry(self):
        # a delta-encoded piggyback view prices its destinations like the
        # flat records it stands for, on an SM and on an RM
        m = COSTS
        log = OptTrackLog()
        log.insert(0, 1, {0, 1, 2})
        log.insert(0, 2, {2})
        log.insert(2, 1, {1})
        log.insert(2, 3, {0})
        views, _ = log.piggyback_views(frozenset({1, 2}))
        view = views[1]
        assert view.regain and view.extra
        flat = tuple(view)
        sm_view = OptTrackSM(0, 1, WriteId(0, 1), view)
        sm_flat = OptTrackSM(0, 1, WriteId(0, 1), flat)
        rm_flat = OptTrackRM(0, 1, None, flat, 0)
        dests = sum(len(e.dests) for e in flat)
        assert sm_view.metadata_size() == sm_flat.metadata_size() == (
            opt_track_sm([]).metadata_size()
            + len(flat) * m.log_entry_overhead + dests * m.dest_id)
        assert sm_flat.metadata_size() - rm_flat.metadata_size() == m.var_id

    def test_tuple_log(self):
        empty = CRPSM(0, 1, WriteId(0, 1), ())
        four = CRPSM(0, 1, WriteId(0, 1), tuple((j, 1) for j in range(4)))
        assert four.metadata_size() - empty.metadata_size() == 4 * COSTS.tuple_entry

    def test_negative_rejected(self):
        # the calibrated costs are the only ones: no value can be set
        with pytest.raises(TypeError):
            SizeModel(clock=-1)

    @pytest.mark.parametrize("name", [f.name for f in fields(SizeModel)])
    def test_negative_override_of_each_field_rejected(self, name):
        with pytest.raises(TypeError):
            SizeModel(**{name: -1})
        assert getattr(COSTS, name) >= 0

    def test_every_field_is_read_by_a_price_row(self):
        # the cost names the rows read are exactly the named costs: no
        # cost outlives its formula, no row names a missing one
        read = set()
        for row in PRICE_TABLE.values():
            read.update(f for _c, f in row.fixed)
            for term in (row.records and row.records[1],
                         row.clock and row.clock[0],
                         row.dests and row.dests[0]):
                if term:
                    read.add(term)
        assert read == {f.name for f in fields(SizeModel)}

    def test_rows_resolve_once_per_model(self):
        # one model, so one sizer per row, resolved at import: a send
        # calls it without reading a cost
        assert set(messages._SIZE_OF) == set(PRICE_TABLE)
        sm = optp_sm(5)
        assert sm.metadata_size() == messages._SIZE_OF[OptPSM](sm) == 259

    def test_fm_base_is_the_papers_constant(self):
        # "the size of FM is a constant byte count c" — the base; the
        # soundness fix adds 12 B per piggybacked requirement pair
        assert FetchMessage(0, 1, 0).metadata_size() == COSTS.fm_size
        assert COSTS.fm_requirement == 12


class TestMessageSizes:
    def test_full_track_messages(self):
        m = COSTS
        sm = FullTrackSM(0, 1, WriteId(0, 1), MatrixClock(10))
        rm = FullTrackRM(0, 1, WriteId(0, 1), MatrixClock(10), 0)
        assert sm.metadata_size() == (
            m.envelope_full_track + m.var_id + m.value + 100 * m.matrix_entry)
        assert rm.metadata_size() == (
            m.envelope_full_track + m.value + 100 * m.matrix_entry)
        assert sm.metadata_size() - rm.metadata_size() == m.var_id

    def test_opt_track_sm_grows_with_log(self):
        small = OptTrackSM(0, 1, WriteId(0, 1), ())
        big = OptTrackSM(
            0, 1, WriteId(0, 1),
            tuple(PiggybackEntry(0, c, frozenset({1, 2})) for c in range(1, 6)),
        )
        assert big.metadata_size() - small.metadata_size() == (
            5 * COSTS.log_entry_overhead + 10 * COSTS.dest_id
        )

    def test_crp_sm_grows_per_tuple(self):
        a = CRPSM(0, 1, WriteId(0, 1), ())
        b = CRPSM(0, 1, WriteId(0, 1), ((0, 1), (1, 2)))
        assert b.metadata_size() - a.metadata_size() == 2 * COSTS.tuple_entry

    def test_optp_quadratic_total_linear_per_message(self):
        s5 = OptPSM(0, 1, WriteId(0, 1), VectorClock(5)).metadata_size()
        s10 = OptPSM(0, 1, WriteId(0, 1), VectorClock(10)).metadata_size()
        assert s10 - s5 == 5 * COSTS.vector_entry

    def test_fetch_size(self):
        m = COSTS
        assert FetchMessage(0, 1, 0).metadata_size() == m.fm_size
        with_reqs = FetchMessage(0, 1, 0, requirements=((2, 5), (3, 1)))
        assert with_reqs.metadata_size() == m.fm_size + 2 * m.fm_requirement

    def test_rm_log_includes_write_own_entry_cost(self):
        bare = OptTrackRM(0, 1, None, (), 0)
        with_entry = OptTrackRM(
            0, 1, WriteId(2, 3),
            (PiggybackEntry(2, 3, frozenset({4, 5})),), 0,
        )
        assert with_entry.metadata_size() - bare.metadata_size() == (
            COSTS.log_entry_overhead + 2 * COSTS.dest_id
        )


class TestRunningStat:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(10, 3, size=500)
        rs = RunningStat()
        rs.extend(xs)
        assert rs.count == 500
        assert rs.mean == pytest.approx(np.mean(xs))
        assert rs.stdev == pytest.approx(np.std(xs, ddof=1))
        assert rs.minimum == xs.min() and rs.maximum == xs.max()
        assert rs.total == pytest.approx(xs.sum())

    def test_empty(self):
        rs = RunningStat()
        assert rs.count == 0 and rs.variance == 0.0

    def test_single_sample(self):
        rs = RunningStat()
        rs.add(5.0)
        assert rs.mean == 5.0 and rs.variance == 0.0

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.normal(size=100), rng.normal(5, 2, size=50)
        a, b, ref = RunningStat(), RunningStat(), RunningStat()
        a.extend(xs)
        b.extend(ys)
        ref.extend(np.concatenate([xs, ys]))
        a.merge(b)
        assert a.count == ref.count
        assert a.mean == pytest.approx(ref.mean)
        assert a.variance == pytest.approx(ref.variance)

    def test_merge_with_empty(self):
        a = RunningStat()
        a.add(1.0)
        a.merge(RunningStat())
        assert a.count == 1
        b = RunningStat()
        b.merge(a)
        assert b.mean == 1.0


class TestPercentileAndSummary:
    def test_percentile_matches_numpy(self):
        xs = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        for q in (0, 25, 50, 75, 95, 100):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4 and s.mean == 2.5 and s.total == 10.0
        assert s.p50 == 2.5

    def test_summarize_empty(self):
        s = summarize([])
        assert s.count == 0


def book(c, kind, size_bytes, key=("proto", 0)):
    """Book one sent message the way a sender does: bump its slot."""
    slot = c.message_slot(kind, key)
    slot[0] += 1
    slot[1] += size_bytes


class TestCollector:
    def test_warmup_gate(self):
        c = MetricsCollector()
        book(c, MessageKind.SM, 100)  # before window opens
        c.start_measuring()
        book(c, MessageKind.SM, 200)
        book(c, MessageKind.SM, 50, key=("proto", 1))  # slot born in-window
        tally = c.tally(MessageKind.SM)
        assert tally.lifetime_count == 3
        assert tally.lifetime_bytes == 350
        assert tally.count == 2
        assert tally.total_bytes == 250
        assert tally.mean_bytes == 125

    def test_totals_across_kinds(self):
        c = MetricsCollector()
        c.start_measuring()
        book(c, MessageKind.SM, 10)
        book(c, MessageKind.FM, 20)
        book(c, MessageKind.RM, 30)
        assert c.total_message_count == 3
        assert c.total_metadata_bytes == 60

    def test_operation_counters(self):
        c = MetricsCollector()
        c.record_operation(True)
        c.record_operation(False, remote=True)
        c.start_measuring()
        c.record_operation(False)
        assert c.ops_write == 1 and c.ops_read == 2 and c.ops_read_remote == 1
        assert c.measured_ops_read == 1 and c.measured_ops_write == 0

    def test_samples_only_in_window(self):
        c = MetricsCollector()
        c.record_log_size(10)
        c.record_activation_delay(5.0)
        assert c.log_sizes.count == 0 and c.activation_delays.count == 0
        c.start_measuring()
        c.record_log_size(10)
        assert c.log_sizes.count == 1

    def test_buffered_visibility_equals_per_sample_add(self):
        rng = np.random.default_rng(7)
        lags = rng.exponential(80.0, 5_000).tolist()
        c = MetricsCollector()
        c.record_visibility(1e6)  # before the window: dropped
        c.start_measuring()
        ref = RunningStat()
        fed = 0
        for upto in (1_023, 1_024, 1_025, 3_000, 5_000):
            for lag in lags[fed:upto]:
                c.record_visibility(lag)
                ref.add(lag)
            fed = upto
            got = c.visibility_lags
            assert got.count == ref.count == upto
            for field in ("mean", "_m2", "minimum", "maximum", "total",
                          "_reservoir"):
                assert getattr(got, field) == getattr(ref, field), field
        assert c.visibility_lags.maximum < 1e6

    def test_as_dict_keys(self):
        c = MetricsCollector()
        c.start_measuring()
        book(c, MessageKind.SM, 10)
        d = c.as_dict()
        assert d["SM_count"] == 1
        assert d["SM_mean_bytes"] == 10
        assert "total_metadata_bytes" in d
        assert "mean_fetch_rtt_ms" in d
