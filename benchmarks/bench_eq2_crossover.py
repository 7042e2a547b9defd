"""Eq. (1)/(2) — the analytic partial-vs-full crossover, validated by
simulation.

The paper derives that partial replication sends fewer messages iff
w_rate > 2/(n+1), independent of the replication factor p.  This bench
sweeps write rates through each n's threshold and checks the simulated
message-count ratio crosses 1.0 exactly where the closed form says.
"""

import sys

import pytest
from _common import exhibit_rows, run_standalone, show


def test_eq2_crossover(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("eq2",), rounds=1,
                              iterations=1)
    show(rows, "Eq. (2): simulated vs analytic crossover")

    mismatches = []
    for row in rows:
        # near the threshold, workload sampling can flip the outcome;
        # demand agreement once the write rate is clearly on one side
        if abs(row["write_rate"] - row["threshold"]) < 0.05:
            continue
        if row["partial_wins_sim"] != row["partial_wins_eq2"]:
            mismatches.append((row["n"], row["write_rate"]))
        # the analytic ratio should predict the simulated ratio closely
        if row["analytic_ratio"] != float("inf"):
            assert row["sim_ratio"] == pytest.approx(
                row["analytic_ratio"], rel=0.15
            ), (row["n"], row["write_rate"])
    assert not mismatches, f"eq. (2) mispredicted at {mismatches}"


if __name__ == "__main__":
    sys.exit(run_standalone(test_eq2_crossover))
