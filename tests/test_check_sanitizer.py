"""Tests for the runtime sanitizers: frozen messages + double-run diffing.

The two dynamic layers of ``repro.check``:

* :class:`SanitizedNetwork` must catch a message whose aliased metadata
  is mutated between send and delivery — the exact bug class SIM005
  approximates statically — while staying invisible for honest traffic.
* :func:`double_run` must certify real configurations bit-deterministic
  and, when nondeterminism is injected (via the test-only second-run
  hook), pinpoint the first diverging event with its causal chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import pytest

from repro.check import MessageMutationError, double_run, fingerprint
from repro.check.sanitizer import (
    SanitizedNetwork,
    diff_traces,
    set_divergence_test_hook,
)
from repro.core.log import OptTrackLog
from repro.core.messages import OptTrackSM
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.memory.store import WriteId
from repro.metrics.collector import MetricsCollector
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.network import Network


@dataclass
class Payload:
    """A message whose metadata is captured by reference (like Dests)."""

    origin: int
    dests: list = field(default_factory=list)


def view_sm():
    """An Opt-Track SM riding a delta-encoded piggyback view."""
    log = OptTrackLog()
    log.insert(0, 1, {1, 2, 3})
    log.insert(0, 2, {3})
    views, _ = log.piggyback_views(frozenset({1, 2}))
    return OptTrackSM(var=0, value="v", write_id=WriteId(0, 3), log=views[1])


def make_net(n_sites: int = 2):
    sim = Simulator()
    net = SanitizedNetwork(Network(sim, n_sites, collector=MetricsCollector()))
    return sim, net


# ----------------------------------------------------------------------
# structural fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_structure_equal_fingerprint(self):
        a = Payload(0, dests=[1, 2])
        b = Payload(0, dests=[1, 2])
        assert fingerprint(a) == fingerprint(b)

    def test_set_insertion_order_irrelevant(self):
        a = {3, 1, 2}
        b = set()
        for x in (2, 3, 1):
            b.add(x)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(frozenset(a)) != fingerprint(a)  # type matters

    def test_mutation_changes_fingerprint(self):
        msg = Payload(0, dests=[1])
        before = fingerprint(msg)
        msg.dests.append(2)
        assert fingerprint(msg) != before

    def test_numpy_and_clock_objects(self):
        np = pytest.importorskip("numpy")
        from repro.core.clocks import MatrixClock

        a, b = MatrixClock(3), MatrixClock(3)
        assert fingerprint(a) == fingerprint(b)
        b.m[1, 2] = 7.0
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(np.zeros(3)) != fingerprint(np.zeros(4))


# ----------------------------------------------------------------------
# frozen-message network wrapper
# ----------------------------------------------------------------------
class TestSanitizedNetwork:
    def test_honest_message_delivered(self):
        sim, net = make_net()
        got = []
        net.register(0, lambda src, msg: got.append((src, msg)))
        net.register(1, lambda src, msg: got.append((src, msg)))
        msg = Payload(0, dests=[1])
        net.send(0, 1, msg)
        sim.run()
        assert got == [(0, msg)]
        assert net.mutation_checks == 1

    def test_aliased_mutation_caught_at_delivery(self):
        """The SIM005 bug class, dynamically: mutate after send, boom."""
        sim, net = make_net()
        net.register(0, lambda src, msg: None)
        net.register(1, lambda src, msg: None)
        msg = Payload(0, dests=[1])
        net.send(0, 1, msg)
        msg.dests.append(2)  # the in-flight message changes under us
        with pytest.raises(MessageMutationError) as exc:
            sim.run()
        text = str(exc.value)
        assert "Payload" in text
        assert "site 0" in text and "site 1" in text
        assert "dests" in text  # _changed_fields names the drifted field

    def test_shared_multicast_message_mutation_caught(self):
        """One message fanned out by ``multicast`` is frozen too — the
        wrapper defines the method itself, because its ``__getattr__``
        would otherwise forward straight to the inner network."""
        assert "multicast" in vars(SanitizedNetwork)
        sim, net = make_net(3)
        delivered = []
        for site in range(3):
            net.register(site, lambda src, msg: delivered.append(msg))
        msg = Payload(0, dests=[1, 2])
        net.multicast(0, [1, 2], [msg, msg], [32, 32])
        msg.dests.append(0)
        with pytest.raises(MessageMutationError, match="dests"):
            sim.run()
        assert delivered == [] and net.mutation_checks == 1

    def test_honest_multicast_checked_at_every_delivery(self):
        sim, net = make_net(3)
        for site in range(3):
            net.register(site, lambda src, msg: None)
        msg = Payload(0, dests=[1, 2])
        net.multicast(0, [1, 2], [msg, msg], [0.0, 0.0])
        sim.run()
        assert net.mutation_checks == 2

    def test_every_per_destination_copy_is_frozen(self):
        sim, net = make_net(3)
        delivered = []
        for site in range(3):
            net.register(site, lambda src, msg: delivered.append(msg))
        first, second = Payload(0, dests=[1]), Payload(0, dests=[2])
        net.multicast(0, [1, 2], [first, second], [16, 24])
        second.dests.append(0)
        with pytest.raises(MessageMutationError, match="dests"):
            sim.run()
        # the honest copy may land first; the mutated one never does
        assert second not in delivered

    def test_nested_metadata_mutation_caught(self):
        sim, net = make_net()
        net.register(0, lambda src, msg: None)
        net.register(1, lambda src, msg: None)
        shared = {0: [1.0, 2.0]}
        msg = Payload(0, dests=[shared])
        net.send(0, 1, msg)
        shared[0][1] = 99.0  # deep mutation through the alias
        with pytest.raises(MessageMutationError):
            sim.run()

    def test_flattening_a_sent_view_is_not_a_mutation(self):
        """A piggyback view fills its flat-sequence cache on first
        iteration; that lazy slot is not message state."""
        sim, net = make_net()
        net.register(0, lambda src, msg: None)
        net.register(1, lambda src, msg: None)
        msg = view_sm()
        net.send(0, 1, msg)
        assert len(tuple(msg.log)) == 2  # iterated in flight: cache filled
        sim.run()
        assert net.mutation_checks == 1

    def test_replaced_view_delta_caught(self):
        sim, net = make_net()
        net.register(0, lambda src, msg: None)
        net.register(1, lambda src, msg: None)
        msg = view_sm()
        net.send(0, 1, msg)
        tuple(msg.log)  # even with the flat form already cached
        msg.log.regain = ()  # the copy to 1 loses its gate on (0, 1)
        with pytest.raises(MessageMutationError) as exc:
            sim.run()
        assert "OptTrackSM" in str(exc.value) and "log" in str(exc.value)

    def test_unknown_payloads_pass_unchecked(self):
        """Packets that never crossed send() (transport internals) are
        not the wrapper's business."""
        sim, net = make_net()
        got = []
        net.register(0, lambda src, msg: got.append(msg))
        net.register(1, lambda src, msg: got.append(msg))
        stealth = Payload(0, dests=[1])
        net._inner.send(0, 1, stealth)
        stealth.dests.append(2)  # mutated, but was never fingerprinted
        sim.run()
        assert got == [stealth]
        assert net.mutation_checks == 0

    def test_delegates_to_inner_network(self):
        _sim, net = make_net(3)
        assert net.n_sites == 3
        assert net.total_messages == 0

    def test_full_run_with_sanitizer_matches_plain_run(self):
        """sanitize=True must observe, never perturb: every protocol's
        summary is identical with and without the wrapper."""
        for protocol in ("full-track", "opt-track", "opt-track-crp", "optp"):
            cfg = SimulationConfig(
                protocol=protocol, n_sites=4, n_vars=20,
                ops_per_process=15, seed=7,
            )
            plain = run_simulation(cfg).summary()
            sanitized = run_simulation(replace(cfg, sanitize=True)).summary()
            assert plain == sanitized, protocol


# ----------------------------------------------------------------------
# double-run divergence detector
# ----------------------------------------------------------------------
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
        run_simulation(replace(CFG, sanitize=False), tracer=tracer_a)
        run_simulation(replace(CFG, sanitize=False), tracer=tracer_b)
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
