"""Tests for the HB-Track ablation protocol (happened-before tracking)."""

import pytest

from repro import (
    AdversarialLatency,
    CausalCluster,
    ConstantLatency,
    SimulationConfig,
    check_causal_consistency,
    run_simulation,
)
from repro.experiments.sweep import paired_runs
from repro.metrics.collector import MessageKind


def make(n=3, **kw):
    kw.setdefault("latency", ConstantLatency(10.0))
    return CausalCluster(n, protocol="hb-track", n_vars=6, **kw)


class TestHBTrackSemantics:
    def test_merge_on_receipt_not_on_read(self):
        c = make()
        c.write(0, 0, "v")
        c.settle()
        receiver = c.protocols[1]
        # the defining difference from optP: the clock advanced at apply
        # time, before any read
        assert receiver.write_clock.v.tolist() == [1, 0, 0]

    def test_false_causality_dependency(self):
        # site 1 never reads site 0's write, yet its next write still
        # carries a dependency on it
        c = make()
        c.write(0, 0, "unread")
        c.settle()
        c.write(1, 1, "independent")
        proto = c.protocols[1]
        _, vec = None, proto.write_clock
        assert vec[0] == 1  # false dependency absorbed at receipt

    def test_still_causally_consistent(self):
        cfg = SimulationConfig(protocol="hb-track", n_sites=6, n_vars=8,
                               write_rate=0.5, ops_per_process=30, seed=2,
                               latency=AdversarialLatency(), record_history=True)
        result = run_simulation(cfg)
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    @pytest.mark.parametrize("seed", range(3))
    def test_consistent_across_seeds(self, seed):
        cfg = SimulationConfig(protocol="hb-track", n_sites=4, n_vars=6,
                               write_rate=0.6, ops_per_process=25, seed=seed,
                               latency=AdversarialLatency(), record_history=True)
        result = run_simulation(cfg)
        check_causal_consistency(result.history, result.placement).raise_if_violated()

    def test_same_message_pattern_as_optp(self):
        runs = paired_runs(("optp", "hb-track"), 5, 0.5,
                           ops_per_process=30, seed=1)
        a, b = runs["optp"].collector, runs["hb-track"].collector
        for kind in MessageKind:
            assert a.tally(kind).count == b.tally(kind).count
        # identical metadata too: both carry the size-n vector
        assert a.tally(MessageKind.SM).mean_bytes == b.tally(MessageKind.SM).mean_bytes

    def test_dependency_knowledge_superset_of_optp(self):
        runs = paired_runs(("optp", "hb-track"), 5, 0.5,
                           ops_per_process=40, seed=3)
        for opt_p, hb_p in zip(runs["optp"].protocols, runs["hb-track"].protocols):
            # hb clock dominates the optp clock at every site: -> ⊇ ->co
            assert (hb_p.write_clock.v >= opt_p.write_clock.v).all()

    def test_requires_full_replication(self):
        cfg = SimulationConfig(protocol="hb-track", n_sites=4,
                               replication_factor=2, ops_per_process=5)
        with pytest.raises(ValueError, match="full replication"):
            run_simulation(cfg)


class TestHBTrackUnderChurn:
    """``repro run --protocol hb-track --churn-joins 1 --churn-leaves 1``
    died with DepartedSiteError (its write multicast to ``range(n)``,
    not the view) and behind that with IndexError (no ``_view_grow``).
    HB-Track now inherits both from optP."""

    def test_join_and_leave_stay_causal(self):
        from repro.sim.faults import FaultPlan, seeded_churn

        plan = FaultPlan.build(
            membership=seeded_churn(5, n_joins=1, n_leaves=1, seed=0))
        cfg = SimulationConfig(protocol="hb-track", n_sites=5,
                               ops_per_process=30, record_history=True,
                               fault_plan=plan)
        result = run_simulation(cfg)
        check_causal_consistency(result.history, result.placement).raise_if_violated()
        vm = result.view_manager
        assert (vm.stats.joins, vm.stats.leaves) == (1, 1)
        # what the CLI prints: epoch 2, members [0, 1, 3, 4, 5]
        assert vm.view.epoch == 2 and vm.view.members == (0, 1, 3, 4, 5)
        live = [result.protocols[s] for s in vm.view.members]
        assert all(p._departed_status is None for p in live)
        # the joiner's slot exists in every survivor's clock and counters
        assert {len(p.applied) for p in live} == {6}
        assert {p.write_clock.n for p in live} == {6}

    def test_shares_optp_machinery(self):
        from repro.core.hb_track import HBTrackProtocol
        from repro.core.optp import OptPProtocol

        assert issubclass(HBTrackProtocol, OptPProtocol)
        # only the read and the apply differ: merge on receipt, not on read
        assert set(vars(HBTrackProtocol)) - {"__module__", "__doc__", "name",
                                             "__abstractmethods__", "_abc_impl"} \
            == {"_local_read", "_apply_value"}
