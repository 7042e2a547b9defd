"""Ablation — Opt-Track's amortized log size vs n.

The paper cites Chandra et al. [18]: the KS log's upper bound is O(n^2)
but its amortized size is almost O(n).  This bench measures the mean and
sampled-max log entry counts across system sizes and write rates and
checks the mean stays within a small constant multiple of n (nowhere
near the n^2 worst case).
"""

import sys

from _common import OPS, SEEDS, chart, run_standalone, show

from repro.experiments.exhibits import WRITE_RATES
from repro.experiments.sweep import averaged_cell

NS = (5, 10, 20, 40)


def compute_rows():
    rows = []
    for n in NS:
        for wr in WRITE_RATES:
            c = averaged_cell("opt-track", n, wr, ops_per_process=OPS, seeds=SEEDS)
            rows.append({
                "n": n,
                "write_rate": wr,
                "mean_log_entries": c["mean_log_size"],
                "entries_per_n": c["mean_log_size"] / n,
                "worst_case_n2": n * n,
            })
    return rows


def test_ablation_amortized_log_size(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    show(rows, "Ablation: Opt-Track amortized log size vs n")
    chart(
        {
            f"w={wr}": [(r["n"], r["mean_log_entries"])
                        for r in rows if r["write_rate"] == wr]
            for wr in WRITE_RATES
        },
        title="mean log entries vs n", x_label="n", y_label="entries",
    )
    for row in rows:
        # amortized O(n): a small constant times n, far below n^2
        assert row["mean_log_entries"] <= 4 * row["n"], row
        assert row["mean_log_entries"] < 0.5 * row["worst_case_n2"]
    # write-intensive workloads keep logs smaller (more PURGE, fewer MERGEs)
    for n in NS:
        by_rate = {r["write_rate"]: r["mean_log_entries"]
                   for r in rows if r["n"] == n}
        assert by_rate[0.8] <= by_rate[0.2]


if __name__ == "__main__":
    sys.exit(run_standalone(test_ablation_amortized_log_size))
