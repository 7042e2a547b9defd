"""Closed-form cost models from Section V of the paper.

These are the analytic counterparts of the simulation: expected message
counts and total metadata sizes as functions of (n, p, w, r), priced
with the calibrated costs.  The benchmark harness prints analytic and
simulated values side by side; integration tests assert the simulated counts match these
formulas exactly in expectation (and exactly, for deterministic
placements, once the workload's per-write locality is accounted for).

Count formulas (writes multicast to p replicas; a write by a site that
locally replicates the variable sends p-1 messages, otherwise p, and
with even replication the local-replica probability is p/n; a read is
remote with probability (n-p)/n and then costs one FM + one RM):

* partial replication:  ((p-1) + (n-p)/n) * w + 2 * r * (n-p)/n
* full replication:     (n-1) * w

Per-message sizes are the message types' rows of the price table
(:data:`repro.core.messages.PRICE_TABLE`) evaluated at the expected
shape — clock width n, a mean log length, a mean destination count — so
the analytic and the simulated bytes share one formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.messages import (
    CRPSM,
    PRICE_TABLE,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)

__all__ = [
    "partial_replication_message_count",
    "full_replication_message_count",
    "full_track_total_size",
    "opt_track_total_size",
    "opt_track_crp_total_size",
    "optp_total_size",
    "CostBreakdown",
]


def _validate(n: int, p: int, w: float, r: float) -> None:
    if n <= 0:
        raise ValueError("n must be positive")
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, n]; got p={p}, n={n}")
    if w < 0 or r < 0:
        raise ValueError("operation counts cannot be negative")


def partial_replication_message_count(n: int, p: int, w: float, r: float) -> float:
    """Expected messages for w writes + r reads under partial replication."""
    _validate(n, p, w, r)
    sm = ((p - 1) + (n - p) / n) * w
    fetch_pairs = 2 * r * (n - p) / n
    return sm + fetch_pairs


def full_replication_message_count(n: int, w: float, r: float = 0.0) -> float:
    """Expected messages under full replication: reads are free."""
    _validate(n, n, w, r)
    return (n - 1) * w


@dataclass(frozen=True)
class CostBreakdown:
    """Expected counts and byte totals per message kind."""

    sm_count: float
    fm_count: float
    rm_count: float
    sm_bytes: float
    fm_bytes: float
    rm_bytes: float

    @property
    def total_count(self) -> float:
        return self.sm_count + self.fm_count + self.rm_count

    @property
    def total_bytes(self) -> float:
        return self.sm_bytes + self.fm_bytes + self.rm_bytes


def _partial_counts(n: int, p: int, w: float, r: float) -> tuple[float, float]:
    sm = ((p - 1) + (n - p) / n) * w
    remote_reads = r * (n - p) / n
    return sm, remote_reads


def full_track_total_size(n: int, p: int, w: float, r: float) -> CostBreakdown:
    """Full-Track: every SM and RM carries the n x n matrix — Θ(n²) each,
    for the paper's O(n² p w + n r (n - p)) total."""
    _validate(n, p, w, r)
    sm_count, remote = _partial_counts(n, p, w, r)
    return CostBreakdown(
        sm_count=sm_count,
        fm_count=remote,
        rm_count=remote,
        sm_bytes=sm_count * PRICE_TABLE[FullTrackSM].size_at(width=n),
        fm_bytes=remote * PRICE_TABLE[FetchMessage].size_at(),
        rm_bytes=remote * PRICE_TABLE[FullTrackRM].size_at(width=n),
    )


def opt_track_total_size(
    n: int,
    p: int,
    w: float,
    r: float,
    *,
    amortized_log_entries: float | None = None,
    mean_dests_per_entry: float | None = None,
) -> CostBreakdown:
    """Opt-Track: SM/RM carry the amortized-O(n) log (Chandra et al. [18]).

    ``amortized_log_entries`` defaults to n (the amortized bound);
    ``mean_dests_per_entry`` defaults to 1 (destination lists are pruned
    aggressively, so surviving entries carry few destinations).  Pass
    measured values from a simulation for a calibrated prediction.
    """
    _validate(n, p, w, r)
    entries = float(n) if amortized_log_entries is None else amortized_log_entries
    dests = 1.0 if mean_dests_per_entry is None else mean_dests_per_entry
    if entries < 0 or dests < 0:
        raise ValueError("log shape parameters cannot be negative")
    sm_count, remote = _partial_counts(n, p, w, r)
    return CostBreakdown(
        sm_count=sm_count,
        fm_count=remote,
        rm_count=remote,
        sm_bytes=sm_count * PRICE_TABLE[OptTrackSM].size_at(
            records=entries, dests=entries * dests),
        fm_bytes=remote * PRICE_TABLE[FetchMessage].size_at(),
        rm_bytes=remote * PRICE_TABLE[OptTrackRM].size_at(
            records=entries, dests=entries * dests),
    )


def opt_track_crp_total_size(
    n: int,
    w: float,
    *,
    mean_log_entries: float = 2.0,
) -> CostBreakdown:
    """Opt-Track-CRP: (n-1) SMs per write, each O(d) — total O(n w d).

    ``mean_log_entries`` is the paper's d + 1; it is a small constant in
    practice (the log resets on every write).
    """
    _validate(n, n, w, 0.0)
    if mean_log_entries < 0:
        raise ValueError("log size cannot be negative")
    sm_size = PRICE_TABLE[CRPSM].size_at(records=mean_log_entries)
    sm_count = (n - 1) * w
    return CostBreakdown(sm_count, 0.0, 0.0, sm_count * sm_size, 0.0, 0.0)


def optp_total_size(n: int, w: float) -> CostBreakdown:
    """optP: (n-1) SMs per write, each carrying the size-n vector — O(n² w)."""
    _validate(n, n, w, 0.0)
    sm_count = (n - 1) * w
    sm_size = PRICE_TABLE[OptPSM].size_at(width=n)
    return CostBreakdown(sm_count, 0.0, 0.0, sm_count * sm_size, 0.0, 0.0)
