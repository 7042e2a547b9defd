"""Seeded ``repro run --metrics`` registries reproduce the committed families.

``golden/metrics_families.json`` pins every instrument family the
registry exports — each series' value, or count and sum for a summary
— for the five protocol cores under four fault sets: plain, chaos with a
partition, a crash and recovery, and membership churn.  It also holds
the ledger's lifetime message count per sending site.  Its counters and
gauges were first written while the network, failure detector, crash
manager, checkpoint layer and view manager still bumped registry
counters beside their own; the test proves that reading those totals
once at quiescence exports the same numbers.  The whole file was
regenerated once more when the streamed histograms became summaries
read from the collector (``_generated`` says by which commit): every
counter and gauge stayed as it was.

One family is gone on purpose: ``net_messages_sent_total{site}``.  The
golden keeps it, and the test asserts that it equals the ledger's
per-site count, which ``repro_metadata_messages_total`` exports.

The ``opt-track/*`` cases were regenerated later, on their own, when
MERGE took up KS implicit tracking (``_generated`` says by which commit):
logs hold fewer records, so the log-size and metadata-byte families
moved, and the message counts did not.

Regenerate only for an intentional change to what the registry
exports: ``PYTHONPATH=src python tests/test_metrics_golden.py
[PROTOCOL ...]`` rewrites the cases of the named protocols (all when
none), carries each case's retired family over unchanged, and leaves
the rest, ``_generated`` included, as they are; say in ``_generated``
which commit wrote which cases, and why.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import _config_from_args, build_parser
from repro.experiments.runner import run_simulation
from repro.obs.export import HeartbeatReporter
from repro.obs.metrics import MetricsRegistry, Summary

GOLDEN = Path(__file__).parent / "golden" / "metrics_families.json"
PROTOCOLS = ("full-track", "opt-track", "opt-track-crp", "optp", "hb-track")
FAULT_SETS = {
    "plain": [],
    "chaos-partition": ["--drop-rate", "0.1", "--dup-rate", "0.05",
                        "--partition", "300:900:0,1"],
    "crash": ["--drop-rate", "0.05", "--crash-plan", "600:1500:2"],
    "churn": ["--churn-joins", "1", "--churn-leaves", "1",
              "--drop-rate", "0.05"],
}
CASES = [f"{protocol}/{faults}" for protocol in PROTOCOLS
         for faults in FAULT_SETS]
#: the family the ledger's per-site counts replace
RETIRED = "net_messages_sent_total"


def metric_families(case: str) -> dict:
    """What ``repro run --metrics DIR --protocol P -n 5 -q 20 --ops 40
    FLAGS`` exports from its registry, flattened to plain numbers."""
    protocol, faults = case.split("/")
    args = build_parser().parse_args(
        ["run", "--metrics", "unused", "--protocol", protocol,
         "-n", "5", "-q", "20", "--ops", "40", *FAULT_SETS[faults]])
    registry = MetricsRegistry()
    heartbeat = HeartbeatReporter(stream=io.StringIO(), registry=registry)
    run_simulation(_config_from_args(args), registry=registry,
                   heartbeat=heartbeat)
    families: dict = {}
    for fam in registry.families():
        series = families[fam.name] = {}
        for values, child in fam.samples():
            key = ",".join(f"{k}={v}" for k, v in zip(fam.label_names, values))
            series[key] = ([child.count, child.sum]
                           if isinstance(child, Summary) else child.value)
    by_site: dict = {}
    for (_proto, _kind, site), cell in registry.ledger.lifetime.items():
        key = f"site={site}"
        by_site[key] = by_site.get(key, 0) + cell.count
    return {"families": families,
            "ledger_messages_by_site": dict(sorted(by_site.items()))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_registry_reproduces_golden(case, golden):
    expected = golden[case]
    retired = expected["families"].pop(RETIRED)
    # the retired family said nothing the ledger does not: per sending
    # site, the same count of application messages
    assert retired == expected["ledger_messages_by_site"]
    assert metric_families(case) == expected


def test_golden_is_not_vacuous(golden):
    """Every counter a fault set drives is pinned non-zero somewhere."""
    def total(case: str, name: str) -> float:
        return sum(golden[case]["families"].get(name, {}).values())

    driven = {
        "chaos-partition": ("net_injected_drops_total",
                            "net_partition_drops_total",
                            "net_duplicates_total", "net_acks_total",
                            "net_retransmissions_total"),
        "crash": ("crash_crashes_total", "crash_restores_total",
                  "crash_catchups_total", "wal_checkpoints_total",
                  "detector_heartbeats_total", "detector_suspicions_total",
                  "detector_recoveries_total", "net_dead_site_drops_total"),
    }
    for faults, names in driven.items():
        for name in names:
            assert any(total(f"{p}/{faults}", name) for p in PROTOCOLS), name
    # the control: HB-Track buffers arrivals under every fault set, so a
    # summary or counter wired to the wrong store cannot match by being 0
    for faults in ("chaos-partition", "crash", "churn"):
        families = golden[f"hb-track/{faults}"]["families"]
        assert total(f"hb-track/{faults}", "proto_buffered_arrivals_total"), faults
        count, _sum = families["proto_activation_wait_ms"]["protocol=hb-track"]
        assert count > 0, faults
    for protocol in PROTOCOLS:
        churn = golden[f"{protocol}/churn"]["families"]
        assert churn["membership_epochs_total"] == {"": 2}
        assert churn["membership_changes_total"] == {
            "kind=join": 1, "kind=leave": 1}
        assert golden[f"{protocol}/plain"]["ledger_messages_by_site"]


if __name__ == "__main__":
    import sys

    only = sys.argv[1:]
    data = json.loads(GOLDEN.read_text())
    for case in CASES:
        if only and case.split("/")[0] not in only:
            continue
        fresh = metric_families(case)
        retired = data[case]["families"][RETIRED]
        assert retired == fresh["ledger_messages_by_site"], case
        fresh["families"][RETIRED] = retired
        data[case] = fresh
    GOLDEN.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
