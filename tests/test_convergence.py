"""Tests for the replica-convergence analysis."""

from repro import (
    CausalCluster,
    ConstantLatency,
    PerPairLatency,
    SimulationConfig,
    run_simulation,
)
from repro.verify.convergence import check_convergence, divergent_variables

from .test_cluster import ON_BOTH_SUBSTRATES, make_on


class TestConvergedRuns:
    @ON_BOTH_SUBSTRATES
    def test_sequentialized_writes_converge(self, substrate, protocol):
        # writes spaced far apart (fully settled between ops) are totally
        # ordered by ->co via nothing... actually by timing alone they
        # are concurrent — but single-writer runs ARE ordered
        p = 2 if protocol in ("full-track", "opt-track") else None
        c = make_on(substrate, protocol, 4, replication_factor=p)
        for k in range(12):
            c.write(0, k % 6, k)   # single writer: program order chains all
            c.settle()
        report = check_convergence(c.protocols, c.history)
        assert report.ok
        assert report.divergent == []
        assert report.divergence_rate == 0.0

    def test_causally_chained_writers_converge(self, substrate="sim"):
        c = make_on(substrate, "optp", 3)
        c.write(0, 1, "a")
        c.settle()
        assert c.read(1, 1) == "a"   # creates the cross-writer chain
        c.write(1, 1, "b")
        c.settle()
        report = check_convergence(c.protocols, c.history)
        assert report.ok and report.divergent == []
        for vals in report.final_values.values():
            assert len(vals) == 1

    def test_causally_chained_writers_converge_on_loopback(self):
        self.test_causally_chained_writers_converge("loopback")


class TestLegitimateDivergence:
    def test_concurrent_writes_may_diverge(self):
        # two sites write the same variable at the same instant with
        # asymmetric delays: replicas can apply them in opposite orders
        lat = [
            [0.0, 1.0, 50.0],
            [1.0, 0.0, 1.0],
            [50.0, 1.0, 0.0],
        ]
        c = CausalCluster(3, protocol="optp", n_vars=2,
                          latency=PerPairLatency(lat))
        c.write(0, 0, "from-0")   # reaches site1 fast, site2 slow
        c.write(2, 0, "from-2")   # reaches site1 fast, site0 slow
        c.settle()
        report = check_convergence(c.protocols, c.history)
        # divergence is allowed — but only the legitimate kind
        assert report.ok
        if report.divergent:
            assert report.divergent == [0]
            assert report.divergence_rate > 0

    def test_divergence_rate_over_random_run(self):
        cfg = SimulationConfig(protocol="optp", n_sites=6, n_vars=10,
                               write_rate=0.8, ops_per_process=40, seed=1,
                               record_history=True)
        result = run_simulation(cfg)
        report = check_convergence(result.protocols, result.history)
        assert report.ok  # any divergence must be concurrent-only
        assert 0.0 <= report.divergence_rate <= 1.0


class TestIllegitimateDivergenceDetection:
    def test_ordered_final_values_flagged(self):
        # forge protocol state: replicas ending on causally ordered writes
        from repro.memory.store import WriteId
        from repro.verify.history import HistoryRecorder

        c = CausalCluster(2, protocol="optp", n_vars=1,
                          latency=ConstantLatency(1.0))
        c.write(0, 0, "first")
        c.settle()
        c.write(0, 0, "second")
        c.settle()
        # sabotage: wind replica 1 back to the earlier write
        c.protocols[1].ctx.store.apply(0, "first", WriteId(0, 1), 99.0)
        report = check_convergence(c.protocols, c.history)
        assert not report.ok
        assert "causally ordered" in report.illegitimate[0]

    def test_bottom_next_to_value_flagged(self):
        from repro.memory.store import BOTTOM

        c = CausalCluster(2, protocol="optp", n_vars=1,
                          latency=ConstantLatency(1.0))
        c.write(0, 0, "x")
        c.settle()
        slot = c.protocols[1].ctx.store.read(0)
        slot.value, slot.write_id = BOTTOM, None  # sabotage: lost apply
        report = check_convergence(c.protocols, c.history)
        assert not report.ok
        assert "⊥" in report.illegitimate[0]

    def test_divergent_variables_raw_view(self):
        c = CausalCluster(3, protocol="optp", n_vars=2,
                          latency=ConstantLatency(1.0))
        c.write(0, 0, "v")
        c.settle()
        finals = divergent_variables(c.protocols)
        assert set(finals) == {0, 1}
        assert len(finals[0]) == 1      # all replicas agree
        assert finals[1] == {None}      # never written
