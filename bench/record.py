"""What one repeat measured, on either substrate."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.metrics.collector import MessageKind, MetricsCollector

from reference import SpeedSampler


@dataclass
class Repeat:
    """One run of a workload's fixed op count, first op to quiescence."""

    #: as measured, the speed sampler's slices included
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: what the sampler's slices took, and how much slower than nominal
    #: they say the machine ran during this repeat
    sampler_s: float = 0.0
    slowdown: float = 1.0
    #: application reads + writes attempted / not completed
    ops: int = 0
    failed: int = 0
    #: counters read from the program's public result objects
    counts: dict[str, float] = field(default_factory=dict)
    #: live only: one span per client op, last reply -> idle, connections
    #: opened, loop errors swallowed at shutdown
    spans: list[dict] = field(default_factory=list)
    drain_s: float = 0.0
    connections: int = 0
    close_errors: int = 0
    #: only when asked for: the history the causal checker consumes
    history: object = None
    placement: object = None

    def absorb(self, sampler: SpeedSampler) -> None:
        """Take over what ``sampler`` saw while this repeat ran, and mark
        the client ops a slice interrupted (their latency is not the
        system's)."""
        self.sampler_s, self.slowdown = sampler.busy_s, sampler.slowdown
        starts = [start for start, _ in sampler.slices]
        for span in self.spans:
            i = bisect_left(starts, span["start"])
            span["sampled"] = (
                i < len(starts) and starts[i] < span["end"]
                or i > 0 and sampler.slices[i - 1][1] > span["start"])

    @property
    def own_s(self) -> float:
        """Wall seconds as measured, less the sampler's slices."""
        return self.wall_s - self.sampler_s

    @property
    def normal_s(self) -> float:
        """Wall seconds scaled to the machine's nominal speed."""
        return self.own_s / self.slowdown

    def latencies_ms(self, kind: str) -> list[float]:
        """Client-observed latency of the completed, uninterrupted ops of
        one kind, at the machine's nominal speed."""
        scale = 1e3 / self.slowdown
        return [(s["end"] - s["start"]) * scale for s in self.spans
                if s["kind"] == kind and s["status"] == 200
                and not s["sampled"]]


def collector_counts(collectors: Sequence[MetricsCollector],
                     protocols: Iterable) -> dict[str, float]:
    """The counters both substrates expose, summed over ``collectors``
    (one per run on the simulator, one per node on the live cluster)."""
    protocols = list(protocols)
    out: dict[str, float] = {
        "log_entries_final_max": max(p.log_size() for p in protocols),
        "pending_sm_peak": max(p.pending_sm_peak for p in protocols),
        "log_entries_max": max(
            (c.log_sizes.maximum for c in collectors if c.log_sizes.count),
            default=0.0),
    }
    for name in ("ops_write", "ops_read", "ops_read_remote",
                 "measured_ops_write", "measured_ops_read",
                 "total_message_count", "total_metadata_bytes",
                 "lifetime_message_count", "retransmissions",
                 "spurious_retransmissions", "duplicate_drops", "acks_sent",
                 "injected_drops", "injected_dups"):
        out[name] = sum(getattr(c, name) for c in collectors)
    for stat in ("log_sizes", "activation_delays"):
        out[stat + "_count"] = sum(getattr(c, stat).count for c in collectors)
        out[stat + "_total"] = sum(getattr(c, stat).total for c in collectors)
    for kind in MessageKind:
        tallies = [c.tally(kind) for c in collectors]
        out[kind.value + "_count"] = sum(t.count for t in tallies)
        out[kind.value + "_bytes"] = sum(t.total_bytes for t in tallies)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
