"""Ablation — variable-popularity skew (uniform vs Zipf access).

The paper's workload picks variables uniformly.  Real stores see Zipf
popularity, which concentrates reads (and hence MERGE traffic) on a few
hot variables while rarely-touched variables keep ancient LastWriteOn
snapshots.  This bench contrasts Opt-Track under uniform and Zipf access
at the same write rate.
"""

import sys

from _common import OPS, run_standalone, show

from repro.experiments.runner import SimulationConfig, run_simulation

N = 12
WRATE = 0.5


def compute_rows():
    rows = []
    for dist, zipf_s in (("uniform", 1.1), ("zipf", 1.1), ("zipf", 1.5)):
        cfg = SimulationConfig(protocol="opt-track", n_sites=N, write_rate=WRATE,
                               ops_per_process=OPS, seed=0,
                               var_distribution=dist, zipf_s=zipf_s)
        result = run_simulation(cfg)
        col = result.collector
        rows.append({
            "distribution": dist if dist == "uniform" else f"zipf(s={zipf_s})",
            "messages": col.total_message_count,
            "metadata_KB": col.total_metadata_bytes / 1000,
            "mean_log": col.log_sizes.mean,
            "sm_mean_B": col.as_dict()["SM_mean_bytes"],
        })
    return rows


def test_ablation_variable_skew(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    show(rows, f"Ablation: variable popularity skew (opt-track, n={N})")
    uniform = rows[0]
    for zipf in rows[1:]:
        # message *counts* are distribution-free (writes multicast to p
        # replicas regardless of which variable), within sampling noise
        assert abs(zipf["messages"] - uniform["messages"]) / uniform["messages"] < 0.1
        # logs stay bounded under skew too (MERGE's implicit tracking
        # keeps stale records of hot variables from re-entering them)
        assert zipf["mean_log"] < 6 * N


if __name__ == "__main__":
    sys.exit(run_standalone(test_ablation_variable_skew))
