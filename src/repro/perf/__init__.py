"""The metrics-registry overhead gate — the one timed check in-package.

``python -m repro.perf`` runs the reference simulation with and without
a live :class:`~repro.obs.metrics.MetricsRegistry` and fails when the
enabled registry costs more than 5% (:mod:`repro.perf.overhead` says why
a *ratio* of interleaved CPU-time pairs is sound where an absolute
timing against a committed number is not)::

    python -m repro.perf --quick                 # CI gate
    python -m repro.perf --record "my change"    # store in BENCH_overhead.json

Every other speed question is answered elsewhere: end-to-end numbers by
``bench/run.py`` (``BENCHMARK.json``), unit costs by
``benchmarks/bench_micro_structures.py`` (docs/architecture.md, "How
speed is checked").

Wall-clock reads live here by design; simulation code must keep using
``Simulator.now`` (SIM001 exempts ``repro/perf/`` the same way it
exempts ``benchmarks/``).
"""

from __future__ import annotations

from .cli import main
from .overhead import run_overhead

__all__ = ["main", "run_overhead"]
