"""Replication advisor: the paper's models turned into a planning tool.

Given a workload profile (system size, write rate, payload size, and
optionally measured metadata shapes), recommend full vs partial
replication and a protocol, with the quantitative ledger behind the
recommendation — the Section V-C discussion ("partial replication
generates much less messages ... full replication might improve the
latency") made executable.

The advisor applies three criteria, in the paper's own terms:

1. **message count** — eq. (2): partial wins iff ``w_rate > 2/(n+1)``;
2. **transfer volume** — metadata (from the cost models) plus payload
   (each SM/RM carries the object) per measured operation mix;
3. **storage** — p copies versus n copies of every object.

Read latency is reported as the trade-off the caller must accept:
partial replication turns a fraction ``(n-p)/n`` of reads into remote
round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.replication import paper_replication_factor
from .model import (
    full_replication_message_count,
    opt_track_crp_total_size,
    opt_track_total_size,
    partial_replication_message_count,
)
from .tradeoff import crossover_write_rate

__all__ = ["WorkloadProfile", "Recommendation", "recommend_replication"]


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about a deployment."""

    n_sites: int
    write_rate: float
    #: operations per unit time (any unit; only ratios matter)
    operations: float = 1000.0
    #: mean application payload bytes carried by an update (0 = metadata only)
    payload_bytes: float = 0.0
    #: candidate replication factor (default: the paper's 0.3 n)
    replication_factor: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("advice needs at least two sites")
        if not 0.0 <= self.write_rate <= 1.0:
            raise ValueError("write rate must be in [0, 1]")
        if self.operations <= 0:
            raise ValueError("operations must be positive")
        if self.payload_bytes < 0:
            raise ValueError("payload bytes cannot be negative")

    @property
    def p(self) -> int:
        if self.replication_factor is not None:
            return self.replication_factor
        return paper_replication_factor(self.n_sites)

    @property
    def writes(self) -> float:
        return self.write_rate * self.operations

    @property
    def reads(self) -> float:
        return (1.0 - self.write_rate) * self.operations


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict plus its quantitative ledger."""

    replication: str                 #: "partial" or "full"
    protocol: str                    #: recommended protocol name
    partial_messages: float
    full_messages: float
    partial_transfer_bytes: float
    full_transfer_bytes: float
    storage_copies_partial: int
    storage_copies_full: int
    remote_read_fraction: float      #: reads that become round trips (partial)
    crossover_write_rate: float
    rationale: tuple[str, ...]

    @property
    def message_ratio(self) -> float:
        """partial / full message count (< 1: partial wins)."""
        if self.full_messages == 0:
            return float("inf") if self.partial_messages else 1.0
        return self.partial_messages / self.full_messages


def recommend_replication(profile: WorkloadProfile) -> Recommendation:
    """Apply the paper's models to a workload profile."""
    n, p = profile.n_sites, profile.p
    w, r = profile.writes, profile.reads

    partial_msgs = partial_replication_message_count(n, p, w, r)
    full_msgs = full_replication_message_count(n, w)

    partial_cost = opt_track_total_size(n, p, w, r)
    full_cost = opt_track_crp_total_size(n, w)
    # payload rides on every SM (replicating the object) and every RM
    partial_transfer = partial_cost.total_bytes + profile.payload_bytes * (
        partial_cost.sm_count + partial_cost.rm_count
    )
    full_transfer = full_cost.total_bytes + profile.payload_bytes * full_cost.sm_count

    threshold = crossover_write_rate(n)
    remote_fraction = (n - p) / n

    rationale: list[str] = []
    if profile.write_rate > threshold:
        rationale.append(
            f"eq. (2): write rate {profile.write_rate:.2f} exceeds the "
            f"crossover 2/(n+1) = {threshold:.3f}; partial replication "
            "sends fewer messages"
        )
    else:
        rationale.append(
            f"eq. (2): write rate {profile.write_rate:.2f} is below the "
            f"crossover {threshold:.3f}; full replication sends fewer messages"
        )
    if partial_transfer < full_transfer:
        rationale.append(
            f"transfer volume favours partial replication "
            f"({partial_transfer / 1e6:.2f} MB vs {full_transfer / 1e6:.2f} MB)"
        )
    else:
        rationale.append(
            f"transfer volume favours full replication "
            f"({full_transfer / 1e6:.2f} MB vs {partial_transfer / 1e6:.2f} MB)"
        )
    rationale.append(
        f"storage: {p} copies per object instead of {n} under partial "
        f"replication ({n / p:.1f}x saving)"
    )
    rationale.append(
        f"latency cost of partial replication: {remote_fraction:.0%} of reads "
        "become remote round trips"
    )

    # Decision rule: the two quantitative criteria vote; on a split the
    # transfer criterion wins because it includes the payload — the factor
    # Section V-C argues dominates in practice.
    count_favors_partial = profile.write_rate > threshold
    transfer_favors_partial = partial_transfer < full_transfer
    if count_favors_partial == transfer_favors_partial:
        partial_wins = count_favors_partial
    else:
        partial_wins = transfer_favors_partial
        rationale.append(
            "criteria split: following the transfer-volume criterion "
            "(it includes the payload)"
        )
    return Recommendation(
        replication="partial" if partial_wins else "full",
        protocol="opt-track" if partial_wins else "opt-track-crp",
        partial_messages=partial_msgs,
        full_messages=full_msgs,
        partial_transfer_bytes=partial_transfer,
        full_transfer_bytes=full_transfer,
        storage_copies_partial=p,
        storage_copies_full=n,
        remote_read_fraction=remote_fraction,
        crossover_write_rate=threshold,
        rationale=tuple(rationale),
    )
