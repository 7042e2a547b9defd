"""Fig. 3 — average message meta-data space overhead as a function of n
with w_rate = 0.5, partial replication protocols.

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


def test_fig3_partial_avg_sizes_wrate_5(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig3",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 3: average metadata bytes per message (w_rate=0.5)")
    show_chart("fig3", rows)
    assert_partial_avg_shapes(rows)


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig3_partial_avg_sizes_wrate_5))
