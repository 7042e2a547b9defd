"""Table II — average SM and RM space overhead for Full-Track and
Opt-Track (KB), over the full (n, w_rate) grid.

The printed table mirrors the paper's layout (one row per protocol x
message kind x write rate, one column per n) and includes the paper's
own numbers for side-by-side comparison.
"""

import sys

from _common import exhibit_rows, run_standalone, show

from repro.core.clocks import MatrixClock
from repro.core.messages import FullTrackRM, FullTrackSM
from repro.experiments.exhibits import PARTIAL_NS, WRITE_RATES
from repro.memory.store import WriteId

#: Table II of the paper (KB), for the printed comparison
PAPER_TABLE2 = {
    ("opt-track", "SM", 0.2): [0.489, 0.828, 1.512, 2.241, 2.783],
    ("opt-track", "SM", 0.5): [0.464, 0.715, 1.125, 1.442, 1.976],
    ("opt-track", "SM", 0.8): [0.450, 0.627, 0.914, 1.194, 1.475],
    ("opt-track", "RM", 0.2): [0.432, 0.774, 1.530, 2.351, 3.184],
    ("opt-track", "RM", 0.5): [0.436, 0.702, 1.235, 1.656, 2.197],
    ("opt-track", "RM", 0.8): [0.555, 0.632, 0.948, 1.288, 1.599],
    ("full-track", "SM", 0.2): [0.518, 1.252, 3.870, 8.028, 13.547],
    ("full-track", "SM", 0.5): [0.522, 1.271, 3.975, 8.127, 14.033],
    ("full-track", "SM", 0.8): [0.524, 1.275, 3.988, 8.410, 14.157],
    ("full-track", "RM", 0.2): [0.493, 1.220, 3.817, 7.959, 13.461],
    ("full-track", "RM", 0.5): [0.497, 1.205, 3.941, 8.117, 13.983],
    ("full-track", "RM", 0.8): [0.499, 1.250, 3.966, 8.369, 14.099],
}


def full_track_price(kind, n):
    """The price of one Full-Track SM or RM carrying an n x n matrix."""
    wid, matrix = WriteId(0, 1), MatrixClock(n)
    message = (FullTrackSM(0, 1, wid, matrix) if kind == "SM"
               else FullTrackRM(0, 1, wid, matrix, 0))
    return message.metadata_size()


def test_table2_avg_sm_rm_sizes(benchmark):
    rows = benchmark.pedantic(exhibit_rows, args=("table2",), rounds=1,
                              iterations=1)
    show(rows, "Table II: average SM/RM overhead (KB) — measured")
    show([{"protocol": protocol, "kind": kind, "write_rate": wr,
           **{f"n{n}": p for n, p in zip(PARTIAL_NS, paper)}}
          for (protocol, kind, wr), paper in PAPER_TABLE2.items()],
         "Table II: paper values (KB)")

    for row in rows:
        paper = PAPER_TABLE2[(row["protocol"], row["kind"], row["write_rate"])]
        # Full-Track sizes are schedule-independent (fixed n^2 matrix):
        # measured values must be *exactly* the size model's prediction
        if row["protocol"] == "full-track":
            for n in PARTIAL_NS:
                expected = full_track_price(row["kind"], n) / 1000.0
                assert abs(row[f"n{n}"] - expected) < 1e-9
        # and they must land within 15% of the paper's Table II
        if row["protocol"] == "full-track":
            for n, paper_kb in zip(PARTIAL_NS, paper):
                assert abs(row[f"n{n}"] - paper_kb) / paper_kb < 0.15
    # Opt-Track: write-intensive workloads shrink messages (paper's
    # headline observation), checked at the largest system size
    ot_sm = {wr: next(r for r in rows if r["protocol"] == "opt-track"
                      and r["kind"] == "SM" and r["write_rate"] == wr)
             for wr in WRITE_RATES}
    assert ot_sm[0.8]["n40"] < ot_sm[0.2]["n40"]


if __name__ == "__main__":
    sys.exit(run_standalone(test_table2_avg_sm_rm_sizes))
