"""The A_OPT protocols as each other's oracle.

Full-Track, Opt-Track, Opt-Track-CRP and optP activate an update by one
predicate, A_OPT of [12]; they differ only in the metadata that carries
it.  On one workload, under one latency and fault stream, each pair
below therefore applies the same writes at the same times at every
site, and buffers the same number of arrivals:

* Full-Track and Opt-Track at the paper's p = round(0.3 n);
* optP and Opt-Track-CRP (full replication);
* Opt-Track at p = n and Opt-Track-CRP.

HB-Track is the control: it tracks happened-before, so it must apply
differently from Opt-Track-CRP and buffer strictly more — otherwise the
regime is too tame for the equalities to show anything.  Adversarial
latency is what makes the paper's protocols buffer at all; at the
default log-normal latency and op gaps they buffer 0-1 updates.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import zip_longest
from typing import Optional

import pytest

from repro import AdversarialLatency
from repro.experiments.runner import RunResult, SimulationConfig, run_simulation
from repro.sim.faults import ChannelFaults, FaultPlan
from repro.verify.history import EventKind
from repro.workload.generator import generate_workload

#: name -> (n, ops per process, op gap range in ms, seed, fault plan)
REGIMES = {
    "adversarial-seed0": (20, 150, (5.0, 2005.0), 0, None),
    "adversarial-seed1": (20, 150, (5.0, 2005.0), 1, None),
    # short gaps, so retransmissions and spikes overlap the next writes
    "chaos": (10, 60, (5.0, 105.0), 0, FaultPlan.build(default=ChannelFaults(
        drop_rate=0.05, dup_rate=0.02, spike_rate=0.02))),
}
N_VARS = 100
WRITE_RATE = 0.6

#: (protocol, p: "n", or None for the protocol's default) — the pairs
#: that must agree
PAIRS = {
    "full-track=opt-track": (("full-track", None), ("opt-track", None)),
    "optp=opt-track-crp": (("optp", None), ("opt-track-crp", None)),
    "opt-track@p=n=opt-track-crp": (("opt-track", "n"), ("opt-track-crp", None)),
}

Applies = dict[int, list[tuple[tuple[int, int], float]]]


def _run(regime: str, protocol: str, p: Optional[str]) -> tuple[Applies, int]:
    """Per-site ``(write id, time)`` APPLY sequences and the summed
    ``buffered_arrivals`` of ``protocol`` on ``regime``'s workload."""
    n, ops, gaps, seed, plan = REGIMES[regime]
    workload = generate_workload(n, n_vars=N_VARS, write_rate=WRITE_RATE,
                                 ops_per_process=ops, gap_range_ms=gaps,
                                 seed=seed)
    result: RunResult = run_simulation(SimulationConfig(
        protocol=protocol, n_sites=n, n_vars=N_VARS,
        replication_factor=n if p == "n" else None, write_rate=WRITE_RATE,
        ops_per_process=ops, gap_range_ms=gaps, seed=seed,
        latency=AdversarialLatency(1.0, 5000.0), record_history=True,
        fault_plan=plan, fault_seed=seed), workload=workload)
    assert result.history is not None
    applies: Applies = defaultdict(list)
    for e in result.history.of_kind(EventKind.APPLY):
        assert e.write_id is not None
        applies[e.site].append((e.write_id, e.time))
    return dict(applies), sum(proto.buffered_arrivals
                              for proto in result.protocols)


def first_divergence(a: Applies, b: Applies) -> Optional[str]:
    """The first apply, in site order, where two runs differ: its site,
    position, and each run's write and time (``None`` past a run's end)."""
    for site in sorted(set(a) | set(b)):
        for i, (x, y) in enumerate(zip_longest(a.get(site, ()),
                                               b.get(site, ()))):
            if x != y:
                return (f"site {site}, apply #{i}: "
                        f"{'none' if x is None else f'write {x[0]} at {x[1]} ms'}"
                        f" vs {'none' if y is None else f'write {y[0]} at {y[1]} ms'}")
    return None


@pytest.fixture(scope="module")
def run():
    """:func:`_run`, each run once per module (Opt-Track-CRP's serves
    three tests per regime)."""
    return cache(_run)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("pair", PAIRS)
def test_a_opt_protocols_agree(run, pair, regime):
    (left, right) = PAIRS[pair]
    applies_l, buffered_l = run(regime, *left)
    applies_r, buffered_r = run(regime, *right)
    divergence = first_divergence(applies_l, applies_r)
    assert divergence is None, f"{pair} on {regime}: {divergence}"
    assert buffered_l == buffered_r
    # the runs applied writes, and A_OPT held some of them back
    assert sum(map(len, applies_l.values())) > 0 and buffered_l > 0


@pytest.mark.parametrize("regime", REGIMES)
def test_hb_track_is_the_control(run, regime):
    hb_applies, hb_buffered = run(regime, "hb-track", None)
    crp_applies, crp_buffered = run(regime, "opt-track-crp", None)
    assert first_divergence(hb_applies, crp_applies) is not None
    assert hb_buffered > crp_buffered


def test_first_divergence_names_site_write_and_times():
    a = {0: [((1, 1), 5.0), ((2, 1), 7.0)]}
    b = {0: [((1, 1), 5.0), ((2, 1), 9.5)]}
    assert first_divergence(a, a) is None
    assert first_divergence(a, b) == (
        "site 0, apply #1: write (2, 1) at 7.0 ms vs write (2, 1) at 9.5 ms")
    assert first_divergence(a, {0: a[0][:1]}) == (
        "site 0, apply #1: write (2, 1) at 7.0 ms vs none")
