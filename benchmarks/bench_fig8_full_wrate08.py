"""Fig. 8 — average SM meta-data space overhead as a function of n with
w_rate = 0.8, full replication protocols.

Paper's finding: optP's per-SM size is exactly linear in n (its Write
vector), while Opt-Track-CRP's is O(d) — nearly flat in n.
"""

import sys

from _common import (
    assert_full_avg_shapes,
    exhibit_rows,
    run_standalone,
    show,
    show_chart,
)


def test_fig8_full_avg_sizes_wrate_8(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig8",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 8: average SM metadata bytes (w_rate=0.8, full replication)")
    show_chart("fig8", rows)
    assert_full_avg_shapes(rows)


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig8_full_avg_sizes_wrate_8))
