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

Comparing the two count formulas gives the paper's analytic result, the
necessary condition under which partial replication sends fewer
messages,

    ((p-1) + (n-p)/n) w + 2 r (n-p)/n  <  (n-1) w
        <=>   w > 2 r / (n - 1)                       (eq. 1)
        <=>   w_rate > 2 / (n + 1)                    (eq. 2)

independent of the replication factor p (both sides lose
(n-p)(1 - 1/n) w when rearranged).  :func:`recommend` adds the
transfer volume, payload included, to make the Section V-C choice.
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
    "crossover_write_rate",
    "partial_beats_full",
    "message_count_ratio",
    "transfer_volume",
    "recommend",
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


def crossover_write_rate(n: int) -> float:
    """Eq. (2): the write rate above which partial replication wins."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2.0 / (1 + n)


def partial_beats_full(n: int, p: int, w: float, r: float) -> bool:
    """Exact eq. (1): does partial replication send strictly fewer messages?"""
    return partial_replication_message_count(n, p, w, r) < (
        full_replication_message_count(n, w)
    )


def message_count_ratio(n: int, p: int, write_rate: float, total_ops: float = 1.0) -> float:
    """Partial / full message-count ratio at a given write rate.

    < 1 means partial replication wins.  Undefined (inf) for a pure-read
    workload, where full replication sends nothing at all.
    """
    if not 0.0 <= write_rate <= 1.0:
        raise ValueError("write rate must be in [0, 1]")
    w = write_rate * total_ops
    r = (1.0 - write_rate) * total_ops
    full = full_replication_message_count(n, w)
    partial = partial_replication_message_count(n, p, w, r)
    if full == 0:
        return float("inf") if partial > 0 else 1.0
    return partial / full


def transfer_volume(
    n: int, p: int, w: float, r: float, payload_bytes: float = 0.0,
) -> tuple[float, float]:
    """Bytes sent for w writes and r reads, metadata plus payload:
    ``(partial under Opt-Track, full under Opt-Track-CRP)``.  The payload
    rides on every SM (it replicates the object) and every RM."""
    if payload_bytes < 0:
        raise ValueError("payload bytes cannot be negative")
    partial = opt_track_total_size(n, p, w, r)
    full = opt_track_crp_total_size(n, w)
    return (partial.total_bytes + payload_bytes * (partial.sm_count + partial.rm_count),
            full.total_bytes + payload_bytes * full.sm_count)


def recommend(
    n: int, p: int, w: float, r: float, payload_bytes: float = 0.0,
) -> tuple[str, str]:
    """``(replication, protocol)`` for w writes and r reads: ``("partial",
    "opt-track")`` or ``("full", "opt-track-crp")``.

    Eq. (2)'s message count and the transfer volume vote, and on a split
    the volume wins because it includes the payload, the factor Section
    V-C argues dominates in practice; so the volume decides.
    """
    if n < 2:
        raise ValueError("advice needs at least two sites")
    partial, full = transfer_volume(n, p, w, r, payload_bytes)
    return ("partial", "opt-track") if partial < full else ("full", "opt-track-crp")
