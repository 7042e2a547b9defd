"""Integration tests: full simulations, cross-checked three ways.

1. Every protocol, under several latency regimes and seeds, produces a
   history the causal-consistency checker accepts, finishes every
   schedule, and drains every buffer.
2. Measured message counts match the closed-form expectations exactly
   (counts are a deterministic function of the schedule and placement).
3. Metamorphic relations across protocols hold: same schedule =>
   identical message counts for the two partial protocols, identical
   counts for the two full protocols, Opt-Track at p=n never fetches.
"""

import math

import pytest

from repro import (
    AdversarialLatency,
    ConstantLatency,
    LogNormalLatency,
    SimulationConfig,
    UniformLatency,
    check_causal_consistency,
    run_simulation,
)
from repro.core.base import replication_factor_for
from repro.experiments.sweep import cell_config
from repro.metrics.collector import MessageKind
from repro.verify.history import EventKind
from repro.workload.generator import generate_workload

ALL_PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp"]


def exact_expected_counts(workload, placement):
    """Exact SM/FM/RM counts implied by a schedule and a placement."""
    sm = fm = 0
    for sched in workload.schedules:
        for _, op in sched.items:
            if op.is_write:
                reps = placement.replicas(op.var)
                sm += len(reps) - (1 if sched.site in reps else 0)
            elif not placement.is_replicated_at(op.var, sched.site):
                fm += 1
    return sm, fm, fm  # one RM per FM


class TestCausalConsistencyAcrossTheBoard:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("latency", [
        ConstantLatency(20.0),
        UniformLatency(5.0, 200.0),
        AdversarialLatency(),
        LogNormalLatency(median_ms=50.0, sigma=1.0),
    ], ids=["constant", "uniform", "adversarial", "lognormal"])
    def test_checker_green(self, protocol, latency):
        cfg = SimulationConfig(
            protocol=protocol, n_sites=6, n_vars=10, write_rate=0.4,
            ops_per_process=40, seed=11, latency=latency, record_history=True,
        )
        result = run_simulation(cfg)
        report = check_causal_consistency(result.history, result.placement)
        report.raise_if_violated()
        assert all(p.pending_count == 0 for p in result.protocols)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("seed", range(3))
    def test_checker_green_across_seeds(self, protocol, seed):
        cfg = SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=8, write_rate=0.6,
            ops_per_process=30, seed=seed, latency=AdversarialLatency(),
            record_history=True,
        )
        result = run_simulation(cfg)
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_extreme_write_rates(self, protocol):
        for wr in (0.0, 1.0):
            cfg = SimulationConfig(
                protocol=protocol, n_sites=4, n_vars=6, write_rate=wr,
                ops_per_process=25, seed=3, record_history=True,
            )
            result = run_simulation(cfg)
            check_causal_consistency(result.history, result.placement).raise_if_violated()

    def test_single_site_degenerate(self):
        for protocol in ALL_PROTOCOLS:
            cfg = SimulationConfig(protocol=protocol, n_sites=1, n_vars=4,
                                   write_rate=0.5, ops_per_process=20, seed=0,
                                   record_history=True)
            result = run_simulation(cfg)
            assert result.collector.lifetime_message_count == 0
            check_causal_consistency(result.history, result.placement).raise_if_violated()


class TestMessageCountsExact:
    @pytest.mark.parametrize("protocol", ["full-track", "opt-track"])
    def test_partial_counts_match_schedule_exactly(self, protocol):
        cfg = SimulationConfig(
            protocol=protocol, n_sites=8, n_vars=16, write_rate=0.5,
            ops_per_process=50, seed=7, warmup_fraction=0.0,
        )
        result = run_simulation(cfg)
        sm, fm, rm = exact_expected_counts(result.workload, result.placement)
        col = result.collector
        assert col.tally(MessageKind.SM).count == sm
        assert col.tally(MessageKind.FM).count == fm
        assert col.tally(MessageKind.RM).count == rm

    @pytest.mark.parametrize("protocol", ["opt-track-crp", "optp"])
    def test_full_replication_counts(self, protocol):
        cfg = SimulationConfig(
            protocol=protocol, n_sites=6, n_vars=10, write_rate=0.3,
            ops_per_process=40, seed=2, warmup_fraction=0.0,
        )
        result = run_simulation(cfg)
        writes = result.workload.total_writes
        col = result.collector
        assert col.tally(MessageKind.SM).count == writes * 5  # (n-1) per write
        assert col.tally(MessageKind.FM).count == 0
        assert col.tally(MessageKind.RM).count == 0

    def test_warmup_excludes_messages(self):
        base = dict(protocol="optp", n_sites=4, n_vars=8, write_rate=0.5,
                    ops_per_process=40, seed=1)
        full = run_simulation(SimulationConfig(warmup_fraction=0.0, **base))
        trimmed = run_simulation(SimulationConfig(warmup_fraction=0.15, **base))
        assert trimmed.collector.total_message_count < full.collector.total_message_count
        # lifetime counts are unaffected by the measurement window
        assert (trimmed.collector.lifetime_message_count
                == full.collector.lifetime_message_count)

    def test_counts_match_analytic_expectation(self):
        # statistical check against the closed-form count model
        from repro.analysis.model import partial_replication_message_count

        cfg = SimulationConfig(protocol="opt-track", n_sites=10, n_vars=100,
                               write_rate=0.5, ops_per_process=200, seed=0,
                               warmup_fraction=0.0)
        result = run_simulation(cfg)
        w = result.workload.total_writes
        r = result.workload.total_reads
        expected = partial_replication_message_count(10, 3, w, r)
        assert result.collector.total_message_count == pytest.approx(expected, rel=0.05)


class TestMetamorphicRelations:
    def test_partial_protocols_same_message_pattern(self):
        # Full-Track and Opt-Track differ only in metadata: same schedule
        # must produce the same number of each message kind
        runs = {p: run_simulation(cell_config(p, 6, 0.5, ops_per_process=40, seed=4))
                for p in ("full-track", "opt-track")}
        ft, ot = runs["full-track"].collector, runs["opt-track"].collector
        for kind in MessageKind:
            assert ft.tally(kind).count == ot.tally(kind).count

    def test_full_protocols_same_message_pattern(self):
        runs = {p: run_simulation(cell_config(p, 6, 0.5, ops_per_process=40, seed=4))
                for p in ("opt-track-crp", "optp")}
        a, b = runs["opt-track-crp"].collector, runs["optp"].collector
        assert a.tally(MessageKind.SM).count == b.tally(MessageKind.SM).count

    def test_opt_track_metadata_never_larger_total(self):
        runs = {p: run_simulation(cell_config(p, 10, 0.5, ops_per_process=60, seed=9))
                for p in ("full-track", "opt-track")}
        assert (runs["opt-track"].collector.total_metadata_bytes
                < runs["full-track"].collector.total_metadata_bytes)

    def test_opt_track_at_full_replication_never_fetches(self):
        cfg = SimulationConfig(
            protocol="opt-track", n_sites=5, n_vars=10, replication_factor=5,
            write_rate=0.4, ops_per_process=30, seed=6, record_history=True,
        )
        result = run_simulation(cfg)
        assert result.collector.tally(MessageKind.FM).lifetime_count == 0
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    def test_same_schedule_same_values_read(self):
        # with constant latency the two full-replication protocols must
        # deliver identical apply orders, hence identical read results
        results = {}
        for protocol in ("opt-track-crp", "optp"):
            cfg = SimulationConfig(
                protocol=protocol, n_sites=4, n_vars=8, write_rate=0.5,
                ops_per_process=30, seed=8, latency=ConstantLatency(25.0),
                record_history=True,
            )
            wl = generate_workload(4, n_vars=8, write_rate=0.5,
                                   ops_per_process=30, seed=8)
            result = run_simulation(cfg, workload=wl)
            results[protocol] = [
                (e.site, e.var, e.value) for e in result.history.of_kind(EventKind.READ_OP)
            ]
        assert results["opt-track-crp"] == results["optp"]


class TestRunnerBehavior:
    def test_determinism_end_to_end(self):
        cfg = SimulationConfig(protocol="opt-track", n_sites=5, n_vars=10,
                               write_rate=0.5, ops_per_process=30, seed=13)
        a = run_simulation(cfg).summary()
        b = run_simulation(cfg).summary()
        assert a == b

    def test_config_validation(self):
        with pytest.raises(KeyError):
            SimulationConfig(protocol="nope", n_sites=3)
        with pytest.raises(ValueError):
            SimulationConfig(protocol="optp", n_sites=0)
        with pytest.raises(ValueError):
            SimulationConfig(protocol="optp", n_sites=3, warmup_fraction=1.0)

    def test_full_protocol_rejects_partial_factor(self):
        with pytest.raises(ValueError, match="full replication"):
            SimulationConfig(protocol="optp", n_sites=4, replication_factor=2,
                             ops_per_process=5)

    def test_resolved_replication_factor(self):
        assert replication_factor_for("optp", 8) == 8
        assert replication_factor_for("optp", 8, 8) == 8
        assert replication_factor_for("opt-track", 10) == 3
        assert replication_factor_for("opt-track", 10, 5) == 5
        with pytest.raises(ValueError, match="outside"):
            replication_factor_for("opt-track", 10, 11)

    def test_workload_site_mismatch_rejected(self):
        wl = generate_workload(3, ops_per_process=5)
        cfg = SimulationConfig(protocol="optp", n_sites=4, ops_per_process=5)
        with pytest.raises(ValueError, match="sites"):
            run_simulation(cfg, workload=wl)

    def test_event_budget_guard(self):
        cfg = SimulationConfig(protocol="optp", n_sites=3, ops_per_process=50,
                               max_events=10)
        with pytest.raises(Exception, match="budget"):
            run_simulation(cfg)
