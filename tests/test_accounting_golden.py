"""Seeded runs reproduce the committed accounting numbers exactly.

``golden/accounting_n5.json`` was written by the commit *before* the
collector became the only accounting store (PR 17), so it pins who-wrote-
what-where across that change: per-kind lifetime and measured message
counts and bytes, the ledger's component rows, ack / retransmission
counts and bytes, and the simulator's event count, for every protocol
core with and without a lossy network plus a crash and recovery.  Those
runs are n = 5, where an Opt-Track log stays at ~14 records; the
``opt-track/n40-p12`` case (logs reach 109 records, 3 786 extra-gate
records over 473 multicasts) was written by the commit before the log
became a one-record store walked once per write (PR 20) and pins the
same columns at the paper's scale.  The three ``opt-track/*`` cases were
regenerated once more, by the commit named under ``_generated``, when
MERGE took up KS implicit tracking: a record older than its writer's
newest on the other side is dead, so fewer records ship.

The file is regenerated only for an *intentional* change to what a seeded
run sends: ``PYTHONPATH=src python tests/test_accounting_golden.py
[PROTOCOL ...]`` rewrites the cases of the named protocols (all when
none) and leaves the rest, ``_generated`` included, as they are; say in
``_generated`` which commit wrote which cases, and why.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import SimulationConfig, run_simulation
from repro.metrics.collector import MessageKind
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import ChannelFaults, CrashEvent, FaultPlan

GOLDEN = Path(__file__).parent / "golden" / "accounting_n5.json"
PROTOCOLS = ("full-track", "opt-track", "opt-track-crp", "optp", "hb-track")
CASES = [f"{protocol}/{net}" for protocol in PROTOCOLS
         for net in ("plain", "chaos-crash")] + ["opt-track/n40-p12"]


def _config(case: str) -> SimulationConfig:
    protocol, net = case.split("/")
    if net == "n40-p12":
        return SimulationConfig(protocol=protocol, n_sites=40, n_vars=100,
                                replication_factor=12, ops_per_process=25,
                                seed=7)
    plan = None
    if net == "chaos-crash":
        # the CLI's --drop-rate 0.05 --dup-rate 0.02 --crash-plan 600:1500:2
        plan = FaultPlan.build(
            default=ChannelFaults(drop_rate=0.05, dup_rate=0.02),
            crashes=(CrashEvent(2, 600.0, 1500.0),),
        )
    # ops 5-205 ms apart, so site 2 has a WAL to replay when it crashes
    # at 600 ms and a fetch in flight to re-issue when it recovers
    return SimulationConfig(protocol=protocol, n_sites=5, n_vars=12,
                            ops_per_process=40, gap_range_ms=(5.0, 205.0),
                            seed=7, fault_plan=plan, fault_seed=3)


def accounting_columns(case: str) -> dict:
    registry = MetricsRegistry()
    result = run_simulation(_config(case), registry=registry)
    collector = result.collector
    columns: dict = {
        "total_sim_events": result.total_sim_events,
        "acks_sent": collector.acks_sent,
        "ack_bytes": collector.ack_bytes,
        "retransmissions": collector.retransmissions,
        "retransmission_bytes": collector.retransmission_bytes,
        "ledger": registry.ledger.as_dict(),
    }
    for kind in MessageKind:
        tally = collector.tally(kind)
        columns[kind.value] = {
            "lifetime_count": tally.lifetime_count,
            "lifetime_bytes": tally.lifetime_bytes,
            "measured_count": tally.count,
            "measured_bytes": tally.total_bytes,
        }
    return columns


@pytest.mark.parametrize("case", CASES)
def test_accounting_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert accounting_columns(case) == golden
    # the cases are not vacuous: every run sends SMs inside and outside
    # the window, and the lossy ones really ack and retransmit
    assert 0 < golden["SM"]["measured_count"] < golden["SM"]["lifetime_count"]
    if case.endswith("chaos-crash"):
        assert golden["acks_sent"] and golden["retransmissions"]


if __name__ == "__main__":
    import sys

    only = sys.argv[1:]
    golden = json.loads(GOLDEN.read_text())
    for case in CASES:
        if not only or case.split("/")[0] in only:
            golden[case] = accounting_columns(case)
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
