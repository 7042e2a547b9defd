"""Fig. 5 — total message meta-data space overhead as a function of n and
w_rate in full replication protocols (Opt-Track-CRP / optP ratio).

Paper's finding: slightly above 1 at n=5 (CRP's log can exceed optP's
tiny vector there), dropping to 50-55% at n=40, with higher write rates
pushing the ratio further down.
"""

import sys

from _common import exhibit_rows, run_standalone, show, show_chart

from repro.experiments.exhibits import WRITE_RATES


def test_fig5_total_sm_ratio(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig5",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 5: total SM overhead ratio Opt-Track-CRP / optP")
    show_chart("fig5", rows)
    for wr in WRITE_RATES:
        series = [r["ratio"] for r in rows if r["write_rate"] == wr]
        assert series[-1] < series[0]          # falls with n
        assert 0.3 < series[-1] < 0.75         # paper: ~50-55% at n=40
    # near parity (or slight CRP disadvantage) at n=5, as in the paper
    at5 = [r["ratio"] for r in rows if r["n"] == 5]
    assert all(0.8 < x < 1.3 for x in at5)


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig5_total_sm_ratio))
