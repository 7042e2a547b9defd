"""Indexed wakeups must be observationally identical to the legacy scan.

The dependency-indexed drain (``core.base``) replaces the legacy "re-test
every buffered message after every apply" fixpoint with threshold heaps
keyed by writer.  The refactor's contract is *bit-identical behavior*:
the same messages activate in the same order at the same simulated
times, under every protocol, with and without chaos-induced reordering.
This property test pins that contract by running full simulations in
both modes and diffing the complete event traces.

"Legacy" needs no second drain: a blocker hook that answers ``None``
sends its entry back to be re-tested on every pass, so the one drain
with every hook patched to ``None`` is the full re-scan.
"""

import pytest

from repro.check.sanitizer import diff_traces
from repro.core.base import CausalProtocol, get_protocol_class
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.obs.tracer import Tracer
from repro.sim.faults import FaultPlan

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp"]
SEEDS = [0, 1]


def _config(protocol: str, seed: int, chaos: bool) -> SimulationConfig:
    plan = None
    if chaos:
        # drops + dups + latency spikes maximize cross-channel
        # reordering, which is what stresses the wakeup index
        plan = FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02, spike_rate=0.02)
    return SimulationConfig(
        protocol=protocol,
        n_sites=5,
        n_vars=20,
        ops_per_process=40,
        # ops closer together than a message takes to arrive: at the
        # default 5-2005 ms gaps nothing is ever buffered, no blocker
        # hook is consulted and the two drains are trivially equal
        # (with these, every chaos run below consults them)
        gap_range_ms=(1.0, 30.0),
        seed=seed,
        fault_plan=plan,
        fault_seed=seed,
    )


def _traced_run(config: SimulationConfig, mode: str):
    with pytest.MonkeyPatch.context() as patch:
        if mode == "legacy":
            cls = get_protocol_class(config.protocol)
            for hook in ("_sm_blocker", "_rm_blocker", "_fm_blocker"):
                patch.setattr(cls, hook, lambda self, src, message: None)
        tracer = Tracer()
        run_simulation(config, tracer=tracer)
    return tracer.to_trace()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_indexed_matches_legacy_plain(protocol, seed):
    config = _config(protocol, seed, chaos=False)
    legacy = _traced_run(config, "legacy")
    indexed = _traced_run(config, "indexed")
    report = diff_traces(legacy, indexed, protocol=protocol)
    assert report.identical, report.format()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_indexed_matches_legacy_chaos(protocol, seed):
    config = _config(protocol, seed, chaos=True)
    legacy = _traced_run(config, "legacy")
    indexed = _traced_run(config, "indexed")
    report = diff_traces(legacy, indexed, protocol=protocol)
    assert report.identical, report.format()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_debug_mode_asserts_no_missed_wakeups(protocol, monkeypatch):
    # the indexed drain's cross-check: after every outermost drain, a
    # full legacy-style re-scan must find nothing left applicable
    drain = CausalProtocol._drain
    checks = 0

    def checked_drain(self):
        nonlocal checks
        outermost = not self._draining
        drain(self)
        if outermost:
            self._assert_wakeup_complete()
            checks += 1

    monkeypatch.setattr(CausalProtocol, "_drain", checked_drain)
    run_simulation(_config(protocol, seed=2, chaos=True))
    assert checks > 0
