"""Edge-case tests for the runner, engine, and simulator wiring."""

import math

import pytest

from repro import ConstantLatency, SimulationConfig, run_simulation
from repro.experiments.runner import PAPER_WARMUP_FRACTION, build_placement
from repro.sim.engine import SimulationError, Simulator
from repro.workload.generator import generate_workload


class TestWarmupSemantics:
    def test_paper_fraction_constant(self):
        assert PAPER_WARMUP_FRACTION == 0.15

    def test_exact_operation_split(self):
        # ceil(0.15 * total) operations are excluded from the window
        cfg = SimulationConfig(protocol="optp", n_sites=4, ops_per_process=50,
                               write_rate=0.5, seed=0)
        result = run_simulation(cfg)
        total = result.workload.total_operations
        measured = (result.collector.measured_ops_write
                    + result.collector.measured_ops_read)
        assert measured == total - math.ceil(0.15 * total)

    def test_zero_warmup_measures_everything(self):
        cfg = SimulationConfig(protocol="optp", n_sites=3, ops_per_process=20,
                               warmup_fraction=0.0, seed=0)
        result = run_simulation(cfg)
        col = result.collector
        assert col.measured_ops_write + col.measured_ops_read == 60
        assert col.total_message_count == col.lifetime_message_count

    def test_high_warmup_fraction(self):
        cfg = SimulationConfig(protocol="optp", n_sites=3, ops_per_process=20,
                               warmup_fraction=0.9, seed=0)
        result = run_simulation(cfg)
        col = result.collector
        assert 0 < col.total_message_count < col.lifetime_message_count


class TestRunResult:
    def test_final_log_sizes_shape(self):
        cfg = SimulationConfig(protocol="opt-track", n_sites=5,
                               ops_per_process=20, seed=0)
        result = run_simulation(cfg)
        assert len(result.final_log_sizes) == 5
        assert all(isinstance(x, int) for x in result.final_log_sizes)

    def test_summary_contains_identity_fields(self):
        cfg = SimulationConfig(protocol="full-track", n_sites=4,
                               ops_per_process=15, write_rate=0.3, seed=9)
        summary = run_simulation(cfg).summary()
        assert summary["protocol"] == "full-track"
        assert summary["n"] == 4
        assert summary["p"] == 1  # round(0.3*4)
        assert summary["write_rate"] == 0.3
        assert summary["seed"] == 9
        assert summary["sim_time_ms"] > 0

    def test_sim_event_count_positive(self):
        cfg = SimulationConfig(protocol="optp", n_sites=3, ops_per_process=10,
                               seed=0)
        assert run_simulation(cfg).total_sim_events > 30


class TestPlacementBuild:
    def test_round_robin_default(self):
        cfg = SimulationConfig(protocol="opt-track", n_sites=10)
        pl = build_placement(cfg)
        assert pl.replication_factor == 3


class TestEngineEdges:
    def test_run_not_reentrant(self):
        sim = Simulator()
        failure = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                failure.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert failure and "reentrant" in str(failure[0])

    def test_cancelled_head_does_not_stall_run_until(self):
        sim = Simulator()
        ev = sim.schedule(5.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        ev.cancel()
        sim.run(until=7.0)
        assert sim.now == 7.0
        sim.run()
        assert sim.now == 10.0

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        ev.cancel()
        assert sim.step() is True
        assert fired == ["b"]


class TestWorkloadOverrides:
    def test_explicit_workload_smaller_var_space_ok(self):
        wl = generate_workload(3, n_vars=5, ops_per_process=10, seed=0)
        cfg = SimulationConfig(protocol="optp", n_sites=3, n_vars=10,
                               ops_per_process=10, seed=0)
        result = run_simulation(cfg, workload=wl)
        assert result.workload is wl

    def test_explicit_workload_larger_var_space_rejected(self):
        wl = generate_workload(3, n_vars=50, ops_per_process=10, seed=0)
        cfg = SimulationConfig(protocol="optp", n_sites=3, n_vars=10,
                               ops_per_process=10, seed=0)
        with pytest.raises(ValueError, match="more variables"):
            run_simulation(cfg, workload=wl)

    def test_gap_range_respected_in_sim_time(self):
        cfg = SimulationConfig(protocol="optp", n_sites=2, ops_per_process=10,
                               gap_range_ms=(100.0, 100.0), seed=0,
                               latency=ConstantLatency(1.0))
        result = run_simulation(cfg)
        # 10 ops at exactly 100 ms spacing: last op at t=1000
        assert result.sim_time_ms >= 1000.0
        assert result.sim_time_ms < 1100.0
