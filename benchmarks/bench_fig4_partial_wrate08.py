"""Fig. 4 — average message meta-data space overhead as a function of n
with w_rate = 0.8, partial replication protocols.

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


def test_fig4_partial_avg_sizes_wrate_8(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("fig4",), rounds=1,
                              iterations=1)
    show(rows, "Fig. 4: average metadata bytes per message (w_rate=0.8)")
    show_chart("fig4", rows)
    assert_partial_avg_shapes(rows)


if __name__ == "__main__":
    sys.exit(run_standalone(test_fig4_partial_avg_sizes_wrate_8))
