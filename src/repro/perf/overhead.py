"""Registry-overhead bench: metrics-on vs metrics-off reference run.

A registry is a view: no producer holds one while a run executes (no
kernel batch hook, no protocol histograms), so a run with a registry
is the run without one plus one read at the end.  This bench times that
read: the reference run (``opt_track_n10``, :data:`REFERENCE_CONFIG`)
with and without a full :class:`~repro.obs.metrics.MetricsRegistry` —
the quiescence sample of every total and summary, and the metadata
ledger bound over the collector — and reports the wall-time ratio,
gated at :data:`DEFAULT_OVERHEAD_THRESHOLD`.  A ratio near 1.0 is the
expected reading; a higher one means something started writing to the
registry on the hot path again.

Each repeat times one *pair* of runs back-to-back (alternating which
side goes first to cancel position effects) and the gate reads the
**ratio of the two sides' trimmed means** (each side's samples sorted,
one dropped from each end).  A best-of-each-side quotient is wrong for
a ratio: the two minima are independent draws, so one lucky reference
run inflates the quotient by the full per-run noise.  Interleaved pairs
tax both sides equally under machine drift, and trimming discards the
outlier runs a contended container produces while still averaging the
rest.  Nine pairs by default: at five, the reading's spread on a shared
machine (about +-7 %) was wider than the 5 % bound it is gated at.

There is one measurement, at the *full* reference workload (the CLI's
``--quick`` only labels the record): the ratio is a quotient of two
wall times, and shrinking the run shrinks the baseline while the
quiescence read stays about as large, with far worse noise.

The timed region runs with the garbage collector paused (collected
clean before, re-enabled after): a gen-2 pass costing ~10ms against a
~400ms run would otherwise dominate the ratio with scheduling luck
rather than the cost of the read.  The clock is CPU time, not wall
time (see ``_timed_run``), for the same reason: the gate measures the
cost the registry adds, not the machine's mood during the run.
"""

from __future__ import annotations

import gc
import time

from ..experiments.runner import SimulationConfig, run_simulation
from ..obs.metrics import MetricsRegistry

__all__ = ["DEFAULT_OVERHEAD_THRESHOLD", "REFERENCE_CONFIG", "run_overhead"]

#: allowed fractional wall-time overhead of an enabled registry (5%)
DEFAULT_OVERHEAD_THRESHOLD = 0.05

#: the acceptance criterion's reference run: 10-site Opt-Track, seeded
REFERENCE = "opt_track_n10"
REFERENCE_CONFIG = SimulationConfig(
    protocol="opt-track", n_sites=10, n_vars=100,
    write_rate=0.5, ops_per_process=400, seed=1,
)


def _trimmed_mean(samples: list[float]) -> float:
    """Mean with the smallest and largest sample dropped (when n >= 3)."""
    ordered = sorted(samples)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def _timed_run(config, registry=None) -> float:
    """One timed run with the collector held off the clock.

    Times CPU (``process_time``), not wall: the run is single-threaded
    and compute-bound, so the two agree on an idle machine, but on a
    shared runner a scheduler preemption landing inside one side's run
    charges it a wall-time slice it never executed.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        run_simulation(config, registry=registry)
        return time.process_time() - t0
    finally:
        gc.enable()


def _measure(config, repeats: int) -> tuple[float, float]:
    """``repeats`` interleaved off/on pairs -> trimmed-mean walls."""
    # one untimed pair: a fresh process's first runs carry import and
    # allocator cold-start that trimming alone doesn't reliably drop
    _timed_run(config)
    _timed_run(config, registry=MetricsRegistry())
    offs: list[float] = []
    ons: list[float] = []
    for pair in range(repeats):
        if pair % 2 == 0:
            offs.append(_timed_run(config))
            ons.append(_timed_run(config, registry=MetricsRegistry()))
        else:
            ons.append(_timed_run(config, registry=MetricsRegistry()))
            offs.append(_timed_run(config))
    return _trimmed_mean(offs), _trimmed_mean(ons)


def run_overhead(
    *,
    repeats: int = 9,
    threshold: float = DEFAULT_OVERHEAD_THRESHOLD,
) -> dict:
    """Measure registry-enabled vs registry-off wall time; JSON-ready.

    ``overhead_ratio`` is the ratio of the two sides' trimmed-mean wall
    times over ``repeats`` interleaved pairs — 1.0 means free, 1.05 is
    the default gate ceiling.  ``wall_off_s``/``wall_on_s`` report the
    trimmed means themselves.

    A reading above ``threshold`` triggers one escalation: the bench
    re-measures with doubled repeats and keeps the second reading
    (``escalated``/``first_ratio`` record that it happened).  A real
    regression reads high both times; a contention spike on a shared
    runner rarely survives two independent measurements, so the gate
    keeps its teeth without flapping on machine noise.
    """
    config = REFERENCE_CONFIG
    wall_off, wall_on = _measure(config, repeats)
    ratio = wall_on / wall_off if wall_off > 0 else 1.0
    escalated = False
    first_ratio = ratio
    if ratio > 1.0 + threshold:
        escalated = True
        wall_off, wall_on = _measure(config, repeats * 2)
        ratio = wall_on / wall_off if wall_off > 0 else 1.0
    result = {
        "reference": REFERENCE,
        "protocol": config.protocol,
        "n_sites": config.n_sites,
        "ops_per_process": config.ops_per_process,
        "seed": config.seed,
        "repeats": repeats,
        "wall_off_s": round(wall_off, 6),
        "wall_on_s": round(wall_on, 6),
        "overhead_ratio": round(ratio, 4),
    }
    if escalated:
        result["escalated"] = True
        result["first_ratio"] = round(first_ratio, 4)
    return result
