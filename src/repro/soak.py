"""Chaos-soak harness: sustained adversity over all four protocols.

The chaos suite (tests/test_chaos.py) proves the protocols survive each
fault class in isolation; the soak harness layers them — sustained
drops, duplicate storms, latency spikes, a rolling partition schedule,
and seeded flash crowds hitting the protocol layer directly — and holds
the run to *liveness* invariants the overload-robustness layer exists to
provide:

* **eventual quiescence** — the run drains completely (the runner's
  strict mode enforces it; the harness re-checks protocol buffers);
* **bounded queues** — peak per-channel in-flight occupancy never
  exceeds ``send_window`` and peak reassembly occupancy never exceeds
  ``reorder_window``;
* **no lost acked ops** — every write applies exactly once at exactly
  its replica set, the causal checker passes, and replicas converge;
* **determinism** — a same-seed double run produces a byte-identical
  summary;
* **the chaos was real** — drops, retransmissions, and flash-crowd
  injections all actually happened (a soak that quietly tested nothing
  is a failure, not a pass).

It also carries the adaptive-vs-fixed RTO comparison: on a drop-free
latency-spike plan every timer-driven retransmission is redundant by
construction (the original packet is still en route), so the spurious
counter isolates retransmission-timer quality.  The Jacobson/Karels
estimator must beat the fixed ``base_rto_ms`` policy there.

Exposed on the CLI as ``repro soak`` (report JSON + per-run metrics
artifacts); CI runs a bounded matrix of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .experiments.runner import RunResult, SimulationConfig, run_simulation
from .obs.export import write_prometheus, write_snapshot_json
from .obs.metrics import MetricsRegistry
from .sim.events import EventKind
from .sim.faults import FaultPlan, OverloadEvent, Partition
from .sim.network import UniformLatency
from .sim.reliable import RetransmitPolicy
from .verify.causal_checker import check_causal_consistency
from .verify.convergence import check_convergence

__all__ = [
    "SOAK_PROTOCOLS",
    "SOAK_POLICY",
    "build_soak_plan",
    "build_spike_plan",
    "soak_config",
    "soak_run",
    "check_soak_invariants",
    "canonical_summary",
    "SoakCell",
    "SoakReport",
    "soak_matrix",
    "compare_rto_policies",
]

SOAK_PROTOCOLS = ("full-track", "opt-track", "opt-track-crp", "optp")

#: soak transport policy: short timers keep simulated time cheap, tight
#: windows make flow control + backpressure + shedding actually engage
SOAK_POLICY = RetransmitPolicy(
    base_rto_ms=120.0,
    max_rto_ms=2000.0,
    jitter_ms=10.0,
    min_rto_ms=40.0,
    send_window=24,
    reorder_window=48,
    heal_burst=8,
    breaker_failures=4,
    backpressure_delay_ms=5.0,
    backpressure_limit=64,
    shed_backlog=64,
)


def build_soak_plan(n_sites: int = 5) -> FaultPlan:
    """Sustained drop+dup+spike+partition+flash-crowd schedule.

    Every fault heals in finite time (quiescence must be reachable);
    the flash crowds overlap the partition window on purpose — load
    arrives exactly while channels are severed and backlogs grow.
    """
    if n_sites < 2:
        raise ValueError("the soak plan needs at least two sites")
    partitions = [Partition([0, 1], 600.0, 2200.0)]
    if n_sites >= 4:
        partitions.append(Partition([2, 3], 2800.0, 3600.0))
    flash_sites = (0, n_sites - 1)
    return FaultPlan.uniform(
        drop_rate=0.12,
        dup_rate=0.05,
        spike_rate=0.08,
        spike_ms=(40.0, 320.0),
        partitions=partitions,
        overloads=(
            OverloadEvent(flash_sites, 900.0, 2600.0, 25.0),
            OverloadEvent((n_sites - 1,), 3200.0, 3900.0, 15.0),
        ),
    )


def build_spike_plan() -> FaultPlan:
    """Drop-free latency-spike plan for the RTO comparison.

    Nothing is ever lost, so every timer-driven retransmission is
    spurious by construction — the spurious counter measures nothing
    but how well the retransmission timer tracks the channel.
    """
    return FaultPlan.uniform(spike_rate=0.5, spike_ms=(250.0, 900.0))


def soak_config(
    protocol: str,
    seed: int,
    *,
    n_sites: int = 5,
    ops: int = 40,
    n_vars: int = 10,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetransmitPolicy] = None,
) -> SimulationConfig:
    """One soak run's configuration (dense schedule, chaos-aligned)."""
    return SimulationConfig(
        protocol=protocol,
        n_sites=n_sites,
        n_vars=n_vars,
        ops_per_process=ops,
        # dense operation gaps keep the whole schedule inside the chaos
        # window — "sustained" means the faults overlap the load
        gap_range_ms=(5.0, 120.0),
        seed=seed,
        latency=UniformLatency(5.0, 60.0),
        record_history=True,
        fault_plan=plan if plan is not None else build_soak_plan(n_sites),
        fault_seed=seed,
        retransmit=policy if policy is not None else SOAK_POLICY,
    )


def soak_run(
    config: SimulationConfig,
    registry: Optional[MetricsRegistry] = None,
) -> tuple[RunResult, MetricsRegistry]:
    """Execute one soak run with a metrics registry attached."""
    if registry is None:
        registry = MetricsRegistry()
    result = run_simulation(config, registry=registry)
    return result, registry


def canonical_summary(result: RunResult) -> str:
    """Deterministic JSON rendering of a run's summary — the object the
    double-run determinism invariant compares byte-for-byte."""
    return json.dumps(result.summary(), sort_keys=True, default=repr)


def check_soak_invariants(result: RunResult) -> list[str]:
    """All liveness/correctness invariants for one completed soak run.

    Returns human-readable problem strings; an empty list is a pass.
    """
    problems: list[str] = []
    policy = result.config.retransmit
    assert policy is not None

    # eventual quiescence: the strict runner already raises on stuck
    # schedules; re-check the buffers so a non-strict caller still fails
    undrained = {p.site: p.pending_count for p in result.protocols
                 if p.pending_count}
    if undrained:
        problems.append(f"protocol buffers not drained: {undrained}")

    # bounded queues: peaks must respect the configured windows
    transport = result.protocols[0].ctx.network.transport
    if transport is None:
        problems.append("no chaos transport attached — nothing was soaked")
    else:
        for (src, dst) in sorted(transport._channels):
            ch = transport._channels[(src, dst)]
            if ch.sender.unacked_peak > policy.send_window:
                problems.append(
                    f"channel {src}->{dst}: unacked peak {ch.sender.unacked_peak} "
                    f"exceeds send_window {policy.send_window}"
                )
            if ch.receiver.reorder_peak > policy.reorder_window:
                problems.append(
                    f"channel {src}->{dst}: reorder peak {ch.receiver.reorder_peak} "
                    f"exceeds reorder_window {policy.reorder_window}"
                )

    # no lost acked ops: exactly-once apply at exactly the replica set
    applies: dict[tuple[int, object], int] = {}
    for ev in result.history.of_kind(EventKind.APPLY):
        key = (ev.site, ev.write_id)
        applies[key] = applies.get(key, 0) + 1
    dup = {k: c for k, c in applies.items() if c > 1}
    if dup:
        problems.append(f"duplicate applies leaked above the transport: {dup}")
    for w in result.history.writes():
        replicas = set(result.placement.replicas(w.var))
        applied_sites = {site for (site, wid) in applies if wid == w.write_id}
        if applied_sites != replicas:
            problems.append(
                f"write {w.write_id} applied at {sorted(applied_sites)}, "
                f"expected replicas {sorted(replicas)}"
            )

    causal = check_causal_consistency(result.history, result.placement)
    if causal.violations:
        problems.append(
            f"{len(causal.violations)} causal violation(s); first: "
            f"{causal.violations[0]}"
        )
    conv = check_convergence(result.protocols, result.history)
    if not conv.ok:
        problems.append(f"replicas diverged: {conv.illegitimate[:3]}")

    # the chaos must actually have happened
    col = result.collector
    if col.injected_drops == 0:
        problems.append("fault injector dropped nothing — not a soak")
    if col.retransmissions == 0:
        problems.append("no retransmissions — the reliable layer was idle")
    if col.overload_injected == 0:
        problems.append("no flash-crowd writes were injected")
    return problems


@dataclass
class SoakCell:
    """Outcome of one protocol x seed soak run."""

    protocol: str
    seed: int
    ok: bool
    problems: list[str]
    deterministic: bool
    summary: dict

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "ok": self.ok,
            "problems": list(self.problems),
            "deterministic": self.deterministic,
            "summary": self.summary,
        }


@dataclass
class SoakReport:
    """Full soak-matrix outcome (report JSON + CI artifact payload)."""

    cells: list[SoakCell] = field(default_factory=list)
    rto_comparison: Optional[dict] = None

    @property
    def ok(self) -> bool:
        cells_ok = all(c.ok and c.deterministic for c in self.cells)
        rto_ok = (self.rto_comparison is None
                  or bool(self.rto_comparison.get("adaptive_fewer_spurious")))
        return bool(self.cells) and cells_ok and rto_ok

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [c.as_dict() for c in self.cells],
            "rto_comparison": self.rto_comparison,
        }


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    fam = registry.get(name)
    if fam is None:
        return 0.0
    return sum(child.value for _, child in fam.samples())  # type: ignore[union-attr]


def compare_rto_policies(
    protocol: str = "opt-track",
    seed: int = 3,
    *,
    n_sites: int = 5,
    ops: int = 40,
) -> dict:
    """Adaptive vs fixed RTO on the drop-free spike plan.

    Returns both policies' retransmission counters (read from the
    metrics registry) plus the verdict the acceptance criterion needs:
    the adaptive estimator must retransmit spuriously less often.
    """
    plan = build_spike_plan()
    shared = dict(
        base_rto_ms=120.0, max_rto_ms=4000.0, jitter_ms=10.0,
        send_window=32, reorder_window=64, heal_burst=8,
    )
    policies = {
        "fixed": RetransmitPolicy(adaptive=False, **shared),  # type: ignore[arg-type]
        "adaptive": RetransmitPolicy(adaptive=True, min_rto_ms=60.0, **shared),  # type: ignore[arg-type]
    }
    out: dict = {}
    for name, pol in policies.items():
        config = soak_config(protocol, seed, n_sites=n_sites, ops=ops,
                             plan=plan, policy=pol)
        _, registry = soak_run(config)
        out[name] = {
            "retransmissions": _counter_total(
                registry, "net_retransmissions_total"),
            "spurious_retransmissions": _counter_total(
                registry, "net_spurious_retransmissions_total"),
        }
    out["adaptive_fewer_spurious"] = (
        out["adaptive"]["spurious_retransmissions"]
        < out["fixed"]["spurious_retransmissions"]
    )
    return out


def soak_matrix(
    protocols: Sequence[str] = SOAK_PROTOCOLS,
    seeds: Sequence[int] = (1, 2, 3),
    *,
    n_sites: int = 5,
    ops: int = 40,
    check_determinism: bool = True,
    compare_rto: bool = True,
    out_dir: Optional[Path] = None,
) -> SoakReport:
    """Run the full soak matrix; optionally write report + artifacts.

    ``out_dir`` receives ``soak_report.json`` plus per-run Prometheus
    text and JSON metrics snapshots (the CI artifacts).
    """
    report = SoakReport()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    for protocol in protocols:
        for seed in seeds:
            config = soak_config(protocol, seed, n_sites=n_sites, ops=ops)
            result, registry = soak_run(config)
            problems = check_soak_invariants(result)
            deterministic = True
            if check_determinism:
                rerun, _ = soak_run(soak_config(protocol, seed,
                                                n_sites=n_sites, ops=ops))
                deterministic = (canonical_summary(result)
                                 == canonical_summary(rerun))
                if not deterministic:
                    problems.append("same-seed rerun summary differs")
            report.cells.append(SoakCell(
                protocol=protocol, seed=seed, ok=not problems,
                problems=problems, deterministic=deterministic,
                summary=result.summary(),
            ))
            if out_dir is not None:
                stem = f"soak_{protocol}_s{seed}"
                write_prometheus(registry, out_dir / f"{stem}.prom")
                write_snapshot_json(
                    registry, out_dir / f"{stem}.json",
                    meta={"protocol": protocol, "seed": seed})
    if compare_rto:
        report.rto_comparison = compare_rto_policies(
            n_sites=n_sites, ops=ops)
    if out_dir is not None:
        (out_dir / "soak_report.json").write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True,
                       default=repr))
    return report
