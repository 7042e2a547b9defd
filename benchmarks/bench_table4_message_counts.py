"""Table IV — total message count for partial replication (Opt-Track)
vs full replication (Opt-Track-CRP), same schedules.

Paper's finding: partial replication sends fewer messages everywhere
except n=5 at w_rate=0.2 — exactly the prediction of eq. (2),
w_rate > 2/(n+1).  Counts scale with the number of measured operations,
so absolute values match the paper only at REPRO_BENCH_OPS=600; the
win/lose pattern holds at any scale.
"""

import sys

from _common import OPS, exhibit_rows, run_standalone, show

from repro.analysis.tradeoff import crossover_write_rate
from repro.experiments.exhibits import WRITE_RATES

#: Table IV of the paper (total message counts at 600 ops/process)
PAPER_TABLE4 = {
    5: {"full": (2036, 4960, 8004), "partial": (3208, 3463, 3764)},
    10: {"full": (8910, 22266, 35892), "partial": (8297, 10234, 12156)},
    20: {"full": (38057, 95114, 151905), "partial": (22808, 35668, 48128)},
    30: {"full": (86826, 217181, 347304), "partial": (42600, 75679, 108810)},
    40: {"full": (156156, 390039, 624390), "partial": (69405, 130572, 192883)},
}


def test_table4_message_counts(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("table4",), rounds=1,
                              iterations=1)
    show(rows, f"Table IV: total message counts ({OPS} ops/process)")
    show([{"n": n, **{f"{kind}_{wr}": paper[kind][k]
                      for k, wr in enumerate(WRITE_RATES)
                      for kind in ("full", "partial")}}
          for n, paper in PAPER_TABLE4.items()],
         "Table IV: paper values (600 ops/process)")

    for row in rows:
        n = row["n"]
        for wr in WRITE_RATES:
            partial_wins = row[f"partial_{wr}"] < row[f"full_{wr}"]
            predicted = wr > crossover_write_rate(n)
            assert partial_wins == predicted, (n, wr)
    # paper's single exception: n=5, w_rate=0.2
    n5 = rows[0]
    assert n5["partial_0.2"] > n5["full_0.2"]
    assert n5["partial_0.5"] < n5["full_0.5"]


if __name__ == "__main__":
    sys.exit(run_standalone(test_table4_message_counts))
