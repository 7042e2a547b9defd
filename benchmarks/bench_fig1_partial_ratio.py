"""Fig. 1 — total message meta-data space overhead as a function of n and
w_rate in partial replication protocols (Opt-Track / Full-Track ratio).

Paper's finding: the ratio falls rapidly with n — around 0.9 at n=5 and
only 0.1-0.2 at n=40 — and a higher write rate magnifies Opt-Track's
advantage.
"""

import sys

from _common import exhibit_rows, run_standalone, show, show_chart

from repro.experiments.exhibits import WRITE_RATES


def test_fig1_total_overhead_ratio(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig1",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 1: total metadata overhead ratio Opt-Track / Full-Track")
    show_chart("fig1", rows)
    # shape assertions: ratio decreases with n at every write rate, and
    # Opt-Track always wins at the larger system sizes
    for wr in WRITE_RATES:
        series = [r["ratio"] for r in rows if r["write_rate"] == wr]
        assert series[-1] < series[0], f"ratio did not fall with n at w={wr}"
        assert series[-1] < 0.5, "Opt-Track should win clearly at n=40"
    # higher write rate magnifies the gap at n=40
    at40 = {r["write_rate"]: r["ratio"] for r in rows if r["n"] == 40}
    assert at40[0.8] < at40[0.2]


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig1_total_overhead_ratio))
