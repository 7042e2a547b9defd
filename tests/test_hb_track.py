"""Tests for the HB-Track ablation protocol (happened-before tracking)."""

import pytest

from repro import (
    AdversarialLatency,
    SimulationConfig,
    check_causal_consistency,
    run_simulation,
)
from repro.experiments.sweep import cell_config
from repro.metrics.collector import MessageKind

from .test_cluster import make_on


class TestHBTrackSemantics:
    def test_merge_on_receipt_not_on_read(self, substrate="sim"):
        c = make_on(substrate, "hb-track", 3)
        c.write(0, 0, "v")
        c.settle()
        receiver = c.protocols[1]
        # the defining difference from optP: the clock advanced at apply
        # time, before any read
        assert receiver.write_clock.v.tolist() == [1, 0, 0]

    def test_merge_on_receipt_not_on_read_on_loopback(self):
        self.test_merge_on_receipt_not_on_read("loopback")

    def test_false_causality_dependency(self, substrate="sim"):
        # site 1 never reads site 0's write, yet its next write still
        # carries a dependency on it
        c = make_on(substrate, "hb-track", 3)
        c.write(0, 0, "unread")
        c.settle()
        c.write(1, 1, "independent")
        proto = c.protocols[1]
        _, vec = None, proto.write_clock
        assert vec[0] == 1  # false dependency absorbed at receipt

    def test_false_causality_dependency_on_loopback(self):
        self.test_false_causality_dependency("loopback")

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
        runs = {p: run_simulation(cell_config(p, 5, 0.5, ops_per_process=30, seed=1))
                for p in ("optp", "hb-track")}
        a, b = runs["optp"].collector, runs["hb-track"].collector
        for kind in MessageKind:
            assert a.tally(kind).count == b.tally(kind).count
        # identical metadata too: both carry the size-n vector
        assert a.tally(MessageKind.SM).mean_bytes == b.tally(MessageKind.SM).mean_bytes

    def test_dependency_knowledge_superset_of_optp(self):
        runs = {p: run_simulation(cell_config(p, 5, 0.5, ops_per_process=40, seed=3))
                for p in ("optp", "hb-track")}
        for opt_p, hb_p in zip(runs["optp"].protocols, runs["hb-track"].protocols):
            # hb clock dominates the optp clock at every site: -> ⊇ ->co
            assert (hb_p.write_clock.v >= opt_p.write_clock.v).all()

    def test_requires_full_replication(self):
        with pytest.raises(ValueError, match="full replication"):
            SimulationConfig(protocol="hb-track", n_sites=4,
                             replication_factor=2, ops_per_process=5)

    def test_shares_optp_machinery(self):
        from repro.core.hb_track import HBTrackProtocol
        from repro.core.optp import OptPProtocol

        assert issubclass(HBTrackProtocol, OptPProtocol)
        # only the read and the SM apply differ: merge on receipt, not on
        # read (``__parameters__`` is the Generic base's bookkeeping)
        assert set(vars(HBTrackProtocol)) - {"__module__", "__doc__", "name",
                                             "__abstractmethods__", "_abc_impl",
                                             "__parameters__"} \
            == {"_local_read", "_apply_sm"}
