"""Social-network scenario: should a media store replicate fully or
partially?

The paper motivates partial replication with exactly this workload:
users upload photos and videos (write-intensive, large payloads whose
causality metadata is comparatively tiny) and mostly read content from
their own geographic region.  This example models a 12-datacenter
photo-sharing backend, runs the *same* upload/browse schedule under

* Opt-Track with the paper's replication factor p = 0.3 n, and
* Opt-Track-CRP with full replication,

and then applies eq. (2) — partial replication sends fewer messages iff
w_rate > 2/(n+1) — together with a payload-inclusive traffic estimate,
the consideration Section V-C raises (a 2011-average web object is
~679 KB, dwarfing the metadata).

Run:  python examples/social_network.py
"""

from repro.analysis.tradeoff import crossover_write_rate
from repro.experiments.report import format_table
from repro.experiments.runner import run_simulation
from repro.experiments.sweep import cell_config
from repro.memory.replication import paper_replication_factor

N_DATACENTERS = 12
UPLOAD_RATE = 0.6          # write-intensive: users post more than they browse
OPS_PER_DC = 300
MEDIA_BYTES = 679_000      # average web page size, Johnson et al. [22]


def main() -> None:
    n = N_DATACENTERS
    p = paper_replication_factor(n)
    threshold = crossover_write_rate(n)
    print(f"{n} datacenters, replication factor p={p}, "
          f"upload (write) rate {UPLOAD_RATE}")
    print(f"eq. (2) threshold: partial replication wins on message count "
          f"iff w_rate > {threshold:.3f}")
    print(f"-> prediction: {'partial' if UPLOAD_RATE > threshold else 'full'} "
          "replication sends fewer messages\n")

    # one cell's workload depends only on (n, write rate, ops, seed), so
    # both protocols replay the same schedule
    runs = {
        key: run_simulation(cell_config(key, n, UPLOAD_RATE,
                                        ops_per_process=OPS_PER_DC, seed=7))
        for key in ("opt-track", "opt-track-crp")
    }

    rows = []
    for label, key in (("partial (Opt-Track)", "opt-track"),
                       ("full (Opt-Track-CRP)", "opt-track-crp")):
        col = runs[key].collector
        messages = col.total_message_count
        meta_kb = col.total_metadata_bytes / 1000
        # payload travels on every SM (an upload replicates the photo to
        # each replica site) and on every remote return
        payload_msgs = (col.as_dict()["SM_count"] + col.as_dict()["RM_count"])
        payload_gb = payload_msgs * MEDIA_BYTES / 1e9
        rows.append({
            "configuration": label,
            "messages": messages,
            "metadata_KB": meta_kb,
            "payload_GB": payload_gb,
            "storage_copies": (p if key == "opt-track" else n),
        })
    print(format_table(rows, title="upload/browse traffic, same schedule"))

    partial, full = rows[0], rows[1]
    print(f"\nmessage count      : partial/full = "
          f"{partial['messages'] / full['messages']:.2f}")
    print(f"payload transferred: partial/full = "
          f"{partial['payload_GB'] / full['payload_GB']:.2f}")
    print(f"storage per photo  : {partial['storage_copies']} copies vs "
          f"{full['storage_copies']} copies")
    if partial["messages"] < full["messages"]:
        print("\npartial replication wins, as eq. (2) predicted: "
              "write-intensive media workloads favour fewer replicas.")
    else:
        print("\nfull replication won — workload below the eq. (2) threshold.")


if __name__ == "__main__":
    main()
