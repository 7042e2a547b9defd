"""Indexed wakeups must be observationally identical to the legacy scan.

The dependency-indexed drain (``core.base``) replaces the legacy "re-test
every buffered message after every apply" fixpoint with threshold heaps
keyed by writer.  The refactor's contract is *bit-identical behavior*:
the same messages activate in the same order at the same simulated
times, under every protocol, with and without chaos-induced reordering.
This property test pins that contract by running full simulations in
both modes and diffing the complete event traces.

"Legacy" needs no second drain: a gate that answers ``RETEST`` sends its
entry back to be re-tested on every pass, so the one drain with every
blocked answer patched to ``RETEST`` is the full re-scan.

Since ``on_message`` acts directly on an arrival that is ready when
nothing is queued, the same diff also pins that shortcut: the legacy
run parks a ``RETEST`` entry in a dirty list the moment anything
is buffered, which closes the shortcut until the buffers empty, so
wherever the indexed run acts directly the legacy run went through the
buffer.  Each case asserts the indexed run really took both routes.
"""

import pytest

from repro.check.sanitizer import diff_traces
from repro.core.activation import RETEST
from repro.core.base import CausalProtocol, get_protocol_class
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.obs.tracer import Tracer
from repro.sim.faults import FaultPlan

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp", "hb-track"]
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
        # hook is consulted and the two drains are trivially equal.
        # With these every chaos run buffers (and consults the hooks);
        # of the plain runs only HB-Track's does — false causality —
        # the other four compare direct action to direct action
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
                gate = getattr(cls, hook)
                patch.setattr(
                    cls, hook, lambda self, src, message, gate=gate:
                    None if gate(self, src, message) is None else RETEST)
        tracer = Tracer()
        result = run_simulation(config, tracer=tracer)
    arrivals = sum(p._arrival_seq for p in result.protocols)
    buffered = sum(p.buffered_arrivals for p in result.protocols)
    return tracer.to_trace(), arrivals, buffered


def _assert_equivalent(protocol, seed, *, chaos, expect_buffering):
    config = _config(protocol, seed, chaos=chaos)
    legacy, arrivals, _ = _traced_run(config, "legacy")
    indexed, indexed_arrivals, buffered = _traced_run(config, "indexed")
    report = diff_traces(legacy, indexed, protocol=protocol)
    assert report.identical, report.format()
    assert indexed_arrivals == arrivals
    assert buffered < arrivals, "no arrival was acted on directly"
    if expect_buffering:
        assert buffered > 0, "the buffered path was never exercised"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_indexed_matches_legacy_plain(protocol, seed):
    _assert_equivalent(protocol, seed, chaos=False,
                       expect_buffering=protocol == "hb-track")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_indexed_matches_legacy_chaos(protocol, seed):
    _assert_equivalent(protocol, seed, chaos=True, expect_buffering=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_debug_mode_asserts_no_missed_wakeups(protocol, monkeypatch):
    # the index's cross-check: whenever a site comes to rest — after
    # every outermost arrival or write, whichever route it took — a full
    # legacy-style re-scan must find nothing left applicable.  (Hooked
    # at the entry points, not at ``_drain``: a direct arrival that
    # wakes nothing never calls it.)
    checked = {"direct": 0, "buffered": 0, "write": 0}

    def checking(method, label):
        def wrapper(self, *args, **kwargs):
            outermost = not self._draining
            before = self.buffered_arrivals
            result = method(self, *args, **kwargs)
            if outermost:
                self._assert_wakeup_complete()
                route = label or ("buffered" if self.buffered_arrivals > before
                                  else "direct")
                checked[route] += 1
            return result
        return wrapper

    monkeypatch.setattr(CausalProtocol, "on_message",
                        checking(CausalProtocol.on_message, None))
    monkeypatch.setattr(CausalProtocol, "write",
                        checking(CausalProtocol.write, "write"))
    run_simulation(_config(protocol, seed=4, chaos=True))  # every protocol buffers
    assert min(checked.values()) > 0, checked
