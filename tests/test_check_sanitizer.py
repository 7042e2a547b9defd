"""Tests for the double-run divergence detector.

:func:`double_run` must certify real configurations bit-deterministic
and, when nondeterminism is injected (via the test-only second-run
hook), pinpoint the first diverging event with its causal chain.
"""

from __future__ import annotations

from dataclasses import replace

from repro.check import double_run
from repro.check.sanitizer import diff_traces, set_divergence_test_hook
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.obs.tracer import Tracer


CFG = SimulationConfig(
    protocol="opt-track", n_sites=4, n_vars=20, ops_per_process=15, seed=3
)


class TestDoubleRun:
    def test_deterministic_config_certified(self):
        report = double_run(CFG)
        assert report.identical
        assert report.events_a == report.events_b > 0
        assert "deterministic" in report.format()

    def test_injected_nondeterminism_flagged(self):
        """The test-only hook perturbs the second run's seed; the
        detector must pinpoint the first diverging event."""
        set_divergence_test_hook(lambda cfg: replace(cfg, seed=cfg.seed + 1))
        try:
            report = double_run(CFG)
        finally:
            set_divergence_test_hook(None)
        assert not report.identical
        d = report.divergence
        assert d is not None
        assert d.first is not None and d.second is not None
        assert d.changed_fields  # field-level diff of the event pair
        # the causal chain ends at the diverging event itself
        assert report.causal_chain
        assert report.causal_chain[-1]["id"] == d.second["id"]
        text = report.format()
        assert "DIVERGED" in text and "causal chain" in text

    def test_diff_traces_catches_truncated_log(self):
        tracer_a, tracer_b = Tracer(), Tracer()
        run_simulation(CFG, tracer=tracer_a)
        run_simulation(CFG, tracer=tracer_b)
        a, b = tracer_a.to_trace(), tracer_b.to_trace()
        full = diff_traces(a, b, protocol=CFG.protocol)
        assert full.identical
        b.events[:] = b.events[:-3]  # one run ended early
        cut = diff_traces(a, b, protocol=CFG.protocol)
        assert not cut.identical
        assert cut.divergence is not None
        assert cut.divergence.second is None  # run B has no such event
        assert "<no event" in cut.format()

    def test_chaos_config_deterministic(self):
        from repro.sim.faults import FaultPlan

        cfg = replace(
            CFG,
            fault_plan=FaultPlan.uniform(
                drop_rate=0.05, dup_rate=0.02, spike_rate=0.02
            ),
        )
        report = double_run(cfg)
        assert report.identical, report.format()
