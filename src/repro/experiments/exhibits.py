"""The paper's twelve Section-V exhibits, each declared once.

:data:`EXHIBITS` maps an exhibit id to its title, its row builder and an
optional ASCII chart.  ``repro experiment`` / ``reproduce`` / ``list``
and the exhibit benches under ``benchmarks/`` all read it.  Every row
builder accepts ``ops_per_process`` and ``seeds`` (and its grid, for
tests), and reads its cells through :func:`~repro.experiments.sweep.averaged_cell`,
so a cell that several exhibits share is simulated once per process.

``reproduce_all`` writes per-exhibit CSVs, the charts, and a combined
Markdown report to an output directory; EXPERIMENTS.md records the rows
against the paper's numbers.  matplotlib is not a dependency: the CSVs
are ready for any plotting tool, and the ASCII charts are enough to
eyeball shapes against the paper.

Scale knobs for the benches (environment variables):

* ``REPRO_BENCH_OPS``   — operations per process (paper: 600)
* ``REPRO_BENCH_SEEDS`` — number of independent runs averaged (paper:
  "multiple runs", <=1% variation)
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from ..analysis.model import crossover_write_rate, message_count_ratio
from ..memory.replication import paper_replication_factor
from .report import ascii_chart, csv_text, format_table
from .sweep import averaged_cell

__all__ = [
    "EXHIBITS",
    "Exhibit",
    "PARTIAL_NS",
    "FULL_NS",
    "WRITE_RATES",
    "bench_ops",
    "bench_seeds",
    "fig1_rows",
    "partial_avg_size_rows",
    "table2_rows",
    "fig5_rows",
    "full_avg_size_rows",
    "table3_rows",
    "table4_rows",
    "eq2_rows",
    "reproduce_all",
]

#: process counts the paper sweeps under partial replication (Figs 1-4, Tab II/IV)
PARTIAL_NS = (5, 10, 20, 30, 40)
#: process counts the paper sweeps under full replication (Figs 5-8, Tab III)
FULL_NS = (5, 10, 20, 30, 35, 40)
#: write rates used throughout
WRITE_RATES = (0.2, 0.5, 0.8)
#: Eq. (2)'s grid: write rates through each n's crossover 2/(n+1)
EQ2_NS = (5, 10, 20, 40)
EQ2_WRITE_RATES = (0.05, 0.15, 0.25, 0.35, 0.5, 0.8)


def bench_ops(default: int = 120) -> int:
    """Operations per process for benchmark runs (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_OPS", default))


def bench_seeds(default: int = 1) -> int:
    """Independent seeds averaged per cell (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_SEEDS", default))


# ----------------------------------------------------------------------
# row builders
# ----------------------------------------------------------------------
def fig1_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = PARTIAL_NS,
    write_rates: Sequence[float] = WRITE_RATES,
) -> list[dict]:
    """Fig. 1: total metadata ratio Opt-Track / Full-Track vs (n, w_rate),
    partial replication with p = round(0.3 n)."""
    rows = []
    for wr in write_rates:
        for n in n_values:
            ot = averaged_cell("opt-track", n, wr,
                               ops_per_process=ops_per_process, seeds=seeds)
            ft = averaged_cell("full-track", n, wr,
                               ops_per_process=ops_per_process, seeds=seeds)
            rows.append({
                "n": n,
                "write_rate": wr,
                "opt_track_bytes": ot.total_bytes,
                "full_track_bytes": ft.total_bytes,
                "ratio": ot.total_bytes / ft.total_bytes if ft.total_bytes else float("nan"),
            })
    return rows


def partial_avg_size_rows(
    write_rate: float,
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = PARTIAL_NS,
) -> list[dict]:
    """Figs. 2-4: average SM/RM/FM metadata size vs n, partial replication."""
    rows = []
    for n in n_values:
        for protocol in ("opt-track", "full-track"):
            cell = averaged_cell(protocol, n, write_rate,
                                 ops_per_process=ops_per_process, seeds=seeds)
            rows.append({
                "n": n,
                "protocol": protocol,
                "write_rate": write_rate,
                "sm_bytes": cell.mean_sm,
                "rm_bytes": cell.mean_rm,
                "fm_bytes": cell.mean_fm,
            })
    return rows


def table2_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = PARTIAL_NS,
    write_rates: Sequence[float] = WRITE_RATES,
) -> list[dict]:
    """Table II: average SM and RM overheads (KB) for both partial protocols."""
    rows = []
    for protocol in ("opt-track", "full-track"):
        for kind in ("SM", "RM"):
            for wr in write_rates:
                row = {"protocol": protocol, "kind": kind, "write_rate": wr}
                for n in n_values:
                    cell = averaged_cell(protocol, n, wr,
                                         ops_per_process=ops_per_process, seeds=seeds)
                    row[f"n{n}"] = cell[f"{kind}_mean_bytes"] / 1000.0  # KB
                rows.append(row)
    return rows


def fig5_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = FULL_NS,
    write_rates: Sequence[float] = WRITE_RATES,
) -> list[dict]:
    """Fig. 5: total SM metadata ratio Opt-Track-CRP / optP vs (n, w_rate),
    full replication."""
    rows = []
    for wr in write_rates:
        for n in n_values:
            crp = averaged_cell("opt-track-crp", n, wr,
                                ops_per_process=ops_per_process, seeds=seeds)
            optp = averaged_cell("optp", n, wr,
                                 ops_per_process=ops_per_process, seeds=seeds)
            rows.append({
                "n": n,
                "write_rate": wr,
                "crp_sm_bytes": crp["SM_bytes"],
                "optp_sm_bytes": optp["SM_bytes"],
                "ratio": crp["SM_bytes"] / optp["SM_bytes"] if optp["SM_bytes"] else float("nan"),
            })
    return rows


def full_avg_size_rows(
    write_rate: float,
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = FULL_NS,
) -> list[dict]:
    """Figs. 6-8: average SM metadata size vs n, full replication."""
    rows = []
    for n in n_values:
        for protocol in ("opt-track-crp", "optp"):
            cell = averaged_cell(protocol, n, write_rate,
                                 ops_per_process=ops_per_process, seeds=seeds)
            rows.append({
                "n": n,
                "protocol": protocol,
                "write_rate": write_rate,
                "sm_bytes": cell.mean_sm,
            })
    return rows


def table3_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = FULL_NS,
    write_rates: Sequence[float] = WRITE_RATES,
) -> list[dict]:
    """Table III: average SM bytes for Opt-Track-CRP per write rate, vs optP."""
    rows = []
    for n in n_values:
        row: dict = {"n": n}
        for wr in write_rates:
            cell = averaged_cell("opt-track-crp", n, wr,
                                 ops_per_process=ops_per_process, seeds=seeds)
            row[f"crp_wrate_{wr}"] = cell.mean_sm
        optp = averaged_cell("optp", n, write_rates[0],
                             ops_per_process=ops_per_process, seeds=seeds)
        row["optp"] = optp.mean_sm  # optP's SM size is n-determined, w_rate-free
        rows.append(row)
    return rows


def table4_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = PARTIAL_NS,
    write_rates: Sequence[float] = WRITE_RATES,
) -> list[dict]:
    """Table IV: total message counts, partial (Opt-Track) vs full
    (Opt-Track-CRP), the same schedule through both protocols; eq. (2)
    predicts partial wins iff w_rate > 2/(n+1)."""
    rows = []
    for n in n_values:
        row: dict = {"n": n}
        for wr in write_rates:
            for label, protocol in (("full", "opt-track-crp"), ("partial", "opt-track")):
                cell = averaged_cell(protocol, n, wr,
                                     ops_per_process=ops_per_process, seeds=seeds)
                row[f"{label}_{wr}"] = cell.total_count
        rows.append(row)
    return rows


def eq2_rows(
    *,
    ops_per_process: int,
    seeds: Iterable[int] = (0,),
    n_values: Sequence[int] = EQ2_NS,
    write_rates: Sequence[float] = EQ2_WRITE_RATES,
) -> list[dict]:
    """Eq. (2) validation: simulated partial/full message-count ratio
    against the analytic one and the crossover w_rate > 2/(n+1).

    The analytic ratio is computed from the *realized* operation mix of
    the measured window, not the target write rate (they differ by
    sampling noise, which matters at extreme rates).
    """
    rows = []
    for n in n_values:
        threshold = crossover_write_rate(n)
        p = paper_replication_factor(n)
        for wr in write_rates:
            full = averaged_cell("opt-track-crp", n, wr,
                                 ops_per_process=ops_per_process, seeds=seeds)
            partial = averaged_cell("opt-track", n, wr,
                                    ops_per_process=ops_per_process, seeds=seeds)
            w, r = partial["measured_ops_write"], partial["measured_ops_read"]
            realized = w / (w + r) if (w + r) else 0.0
            rows.append({
                "n": n,
                "write_rate": wr,
                "threshold": threshold,
                "sim_ratio": (partial.total_count / full.total_count
                              if full.total_count else float("inf")),
                "analytic_ratio": message_count_ratio(n, p, realized),
                "partial_wins_sim": partial.total_count < full.total_count,
                "partial_wins_eq2": wr > threshold,
            })
    return rows


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------
def _ratio_chart(title: str) -> Callable[[list[dict]], str]:
    def chart(rows: list[dict]) -> str:
        rates = sorted({r["write_rate"] for r in rows})
        return ascii_chart(
            {f"w={wr}": [(r["n"], r["ratio"]) for r in rows if r["write_rate"] == wr]
             for wr in rates},
            title=title, x_label="n", y_label="ratio",
        )
    return chart


def _size_chart(labels: dict[str, str]) -> Callable[[list[dict]], str]:
    def chart(rows: list[dict]) -> str:
        by_proto: dict[str, list] = {}
        for r in rows:
            by_proto.setdefault(labels[r["protocol"]], []).append((r["n"], r["sm_bytes"]))
        return ascii_chart(by_proto, title="average SM metadata bytes vs n",
                           x_label="n", y_label="bytes")
    return chart


_partial_chart = _size_chart({"opt-track": "OT SM", "full-track": "FT SM"})
_full_chart = _size_chart({"opt-track-crp": "CRP", "optp": "optP"})


class Exhibit(NamedTuple):
    """One Section-V table or figure."""

    title: str
    #: ``rows(ops_per_process=..., seeds=...)`` -> row dicts
    rows: Callable[..., list[dict]]
    chart: Optional[Callable[[list[dict]], str]] = None


#: exhibit id -> definition, in the paper's order (``reproduce`` keeps it)
EXHIBITS: dict[str, Exhibit] = {
    "fig1": Exhibit(
        "Total message meta-data overhead ratio, Opt-Track / Full-Track",
        fig1_rows, _ratio_chart("Opt-Track / Full-Track total metadata ratio")),
    "fig2": Exhibit(
        "Average per-message meta-data size vs n (w_rate = 0.2)",
        functools.partial(partial_avg_size_rows, 0.2), _partial_chart),
    "fig3": Exhibit(
        "Average per-message meta-data size vs n (w_rate = 0.5)",
        functools.partial(partial_avg_size_rows, 0.5), _partial_chart),
    "fig4": Exhibit(
        "Average per-message meta-data size vs n (w_rate = 0.8)",
        functools.partial(partial_avg_size_rows, 0.8), _partial_chart),
    "table2": Exhibit(
        "Average SM and RM space overhead, Full-Track and Opt-Track (KB)",
        table2_rows),
    "fig5": Exhibit(
        "Total SM meta-data overhead ratio, Opt-Track-CRP / optP",
        fig5_rows, _ratio_chart("Opt-Track-CRP / optP total SM ratio")),
    "fig6": Exhibit(
        "Average SM meta-data size vs n, full replication (w_rate = 0.2)",
        functools.partial(full_avg_size_rows, 0.2), _full_chart),
    "fig7": Exhibit(
        "Average SM meta-data size vs n, full replication (w_rate = 0.5)",
        functools.partial(full_avg_size_rows, 0.5), _full_chart),
    "fig8": Exhibit(
        "Average SM meta-data size vs n, full replication (w_rate = 0.8)",
        functools.partial(full_avg_size_rows, 0.8), _full_chart),
    "table3": Exhibit(
        "Average SM space overhead, Opt-Track-CRP (bytes) vs optP",
        table3_rows),
    "table4": Exhibit(
        "Total message count, partial (Opt-Track) vs full (Opt-Track-CRP)",
        table4_rows),
    "eq2": Exhibit(
        "Analytic crossover w_rate > 2/(n+1), validated by simulation",
        eq2_rows),
}


def reproduce_all(
    outdir: str | Path,
    *,
    ops_per_process: int = 600,
    seeds: Sequence[int] = (0,),
    exhibits: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Path:
    """Regenerate exhibits into ``outdir``; returns the report path.

    ``exhibits`` restricts the set (default: everything).  ``progress``
    receives one line per exhibit as it completes.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    chosen = list(exhibits) if exhibits is not None else list(EXHIBITS)
    unknown = [e for e in chosen if e not in EXHIBITS]
    if unknown:
        raise ValueError(f"unknown exhibits: {unknown}")

    report_lines = [
        "# Reproduction report",
        "",
        f"ops per process: {ops_per_process} (paper: 600); "
        f"seeds averaged: {len(list(seeds))}",
        "",
    ]
    for exhibit in chosen:
        title, build, chart = EXHIBITS[exhibit]
        started = time.perf_counter()
        rows = build(ops_per_process=ops_per_process, seeds=tuple(seeds))
        elapsed = time.perf_counter() - started
        (out / f"{exhibit}.csv").write_text(csv_text(rows))
        report_lines += [f"## {exhibit}: {title}", ""]
        report_lines += ["```", format_table(rows), "```", ""]
        if chart is not None:
            rendered = chart(rows)
            (out / f"{exhibit}.txt").write_text(rendered)
            report_lines += ["```", rendered, "```", ""]
        if progress is not None:
            progress(f"{exhibit}: {len(rows)} rows in {elapsed:.1f}s")

    report = out / "REPORT.md"
    report.write_text("\n".join(report_lines))
    return report
