"""Fig. 2 — average message meta-data space overhead as a function of n
with w_rate = 0.2, partial replication protocols.

Paper's finding: Full-Track's SM/RM sizes grow quadratically in n while
Opt-Track's grow almost linearly; FM is a small constant for both.
"""

import sys

from _common import (
    assert_partial_avg_shapes,
    exhibit_rows,
    run_standalone,
    show,
    show_chart,
)


def test_fig2_partial_avg_sizes_wrate_2(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig2",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 2: average metadata bytes per message (w_rate=0.2)")
    show_chart("fig2", rows)
    assert_partial_avg_shapes(rows)


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig2_partial_avg_sizes_wrate_2))
