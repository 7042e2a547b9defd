"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench regenerates one exhibit (table or figure) of the paper's
Section V and prints the same rows/series the paper reports, alongside
the paper's own numbers where they are tabulated.

Scale knobs (environment variables):

* ``REPRO_BENCH_OPS``   — operations per process (default 120; paper 600)
* ``REPRO_BENCH_SEEDS`` — seeds averaged per cell (default 1)

Every exhibit bench reads its rows from ``repro.experiments.EXHIBITS``,
the table ``repro reproduce`` writes from, and every cell is simulated
once per process: Fig. 1, Figs. 2-4, Table II, Table IV and Eq. 2 share
their runs across the whole pytest session.

Run any bench standalone for a paper-scale reproduction, e.g.::

    REPRO_BENCH_OPS=600 python benchmarks/bench_fig1_partial_ratio.py
"""

from __future__ import annotations

import time

from repro.experiments.exhibits import EXHIBITS, bench_ops, bench_seeds
from repro.experiments.report import ascii_chart, format_table

__all__ = [
    "OPS",
    "SEEDS",
    "exhibit_rows",
    "show",
    "show_chart",
    "chart",
    "run_standalone",
]

OPS = bench_ops()
SEEDS = tuple(range(bench_seeds()))


def exhibit_rows(exhibit: str) -> list[dict]:
    """``exhibit``'s rows at the bench scale, as ``repro reproduce`` builds them."""
    return EXHIBITS[exhibit].rows(ops_per_process=OPS, seeds=SEEDS)


def show(rows, title, columns=None):
    """Print an exhibit table (pytest -s or standalone)."""
    print()
    print(format_table(rows, columns=columns, title=title))


def show_chart(exhibit, rows):
    """Print ``exhibit``'s own chart of ``rows``."""
    print()
    print(EXHIBITS[exhibit].chart(rows))


def chart(series, **kw):
    print()
    print(ascii_chart(series, **kw))


def _by_protocol(rows, protocol):
    return [r for r in rows if r["protocol"] == protocol]


def assert_partial_avg_shapes(rows):
    """Common shape assertions for Figs. 2-4.

    Full-Track per-message size must grow quadratically (superlinearly)
    in n; Opt-Track clearly sublinearly relative to it; FM constant.
    """
    ot_rows = _by_protocol(rows, "opt-track")
    ft_rows = _by_protocol(rows, "full-track")
    ft = [r["sm_bytes"] for r in ft_rows]
    ot = [r["sm_bytes"] for r in ot_rows]
    # Full-Track: growth factor n=5 -> n=40 must be near (40/5)^2 on the
    # matrix term; with the envelope it still exceeds 20x
    assert ft[-1] / ft[0] > 20
    # Opt-Track grows far slower than Full-Track
    assert ot[-1] / ot[0] < 0.5 * ft[-1] / ft[0]
    # Opt-Track is cheaper than Full-Track from n=10 on
    for o, f in zip(ot_rows, ft_rows):
        if o["n"] >= 10:
            assert o["sm_bytes"] < f["sm_bytes"]
    # FM: the fetch base plus requirement pairs (the soundness fix, see
    # DESIGN.md).  Opt-Track's pruned logs keep it near the 64-byte base;
    # Full-Track's requirements are a matrix column, bounded by 12 bytes
    # per writer — linear, so its share of the quadratic SM shrinks with n
    for o, f in zip(ot_rows, ft_rows):
        assert 64 <= o["fm_bytes"] < 0.5 * o["sm_bytes"]
        assert 64 <= f["fm_bytes"] <= 64 + 12 * f["n"]
    first, last = ft_rows[0], ft_rows[-1]
    assert (last["fm_bytes"] / last["sm_bytes"]
            < first["fm_bytes"] / first["sm_bytes"])


def assert_full_avg_shapes(rows):
    """Common shape assertions for Figs. 6-8: optP linear in n (10 B per
    process), Opt-Track-CRP nearly flat (O(d))."""
    crp, optp = _by_protocol(rows, "opt-track-crp"), _by_protocol(rows, "optp")
    optp_growth = optp[-1]["sm_bytes"] - optp[0]["sm_bytes"]
    crp_growth = crp[-1]["sm_bytes"] - crp[0]["sm_bytes"]
    assert optp_growth == (optp[-1]["n"] - optp[0]["n"]) * 10  # vector entries
    assert crp_growth < 0.4 * optp_growth  # near-flat vs linear
    assert crp[-1]["sm_bytes"] < optp[-1]["sm_bytes"]  # CRP wins at scale


def run_standalone(test_fn):
    """Standalone entry: run the bench body once, printing its exhibit."""

    class _NullBenchmark:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    print(f"ops per process = {OPS}, seeds = {len(SEEDS)} "
          f"(paper scale: REPRO_BENCH_OPS=600)")
    t0 = time.perf_counter()
    test_fn(_NullBenchmark())
    print(f"\nbench wall time: {time.perf_counter() - t0:.2f}s")
    return 0
