"""Structural introspection of Opt-Track logs.

The amortized-O(n) log is the load-bearing claim behind Opt-Track's
scalability (Figs. 2-4 rest on it).  This module dissects the live logs
of a finished run so the claim can be *inspected*, not just averaged:
per-site entry counts, destination-list histograms, per-writer entry
distribution and entry staleness (how far behind the site's applied
clock a record's write is).

Used by ``repro run --protocol opt-track`` reporting, by tests, and
handy in a REPL when studying pruning behaviour.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..metrics.stats import summarize

if TYPE_CHECKING:
    from ..core.opt_track import OptTrackProtocol

__all__ = ["LogSnapshot", "snapshot_logs", "format_log_report"]


@dataclass(frozen=True)
class LogSnapshot:
    """Structural summary of the Opt-Track logs across a run's sites."""

    n_sites: int
    entries_per_site: tuple[int, ...]
    dest_list_histogram: dict[int, int]
    entries_per_writer: dict[int, int]
    #: per-record staleness: holder's applied clock of the record's
    #: writer minus the record's clock (>= 0 once applied; < 0 while the
    #: write is still in flight to the holder or not destined to it)
    staleness: tuple[int, ...]

    @property
    def mean_entries(self) -> float:
        if not self.entries_per_site:
            return 0.0
        return sum(self.entries_per_site) / len(self.entries_per_site)

    @property
    def max_entries(self) -> int:
        return max(self.entries_per_site, default=0)

    @property
    def mean_dests(self) -> float:
        total = sum(k * v for k, v in self.dest_list_histogram.items())
        count = sum(self.dest_list_histogram.values())
        return total / count if count else 0.0

    @property
    def empty_marker_fraction(self) -> float:
        """Share of records that are pure ∅-markers (newest-per-writer)."""
        count = sum(self.dest_list_histogram.values())
        if not count:
            return 0.0
        return self.dest_list_histogram.get(0, 0) / count


def snapshot_logs(protocols: Sequence["OptTrackProtocol"]) -> LogSnapshot:
    """Capture the structural state of every site's log."""
    entries_per_site: list[int] = []
    dest_hist: Counter = Counter()
    per_writer: Counter = Counter()
    staleness: list[int] = []
    for proto in protocols:
        log = getattr(proto, "log", None)
        if log is None or not hasattr(log, "entries"):
            raise TypeError(
                f"protocol {type(proto).__name__} has no inspectable log"
            )
        entries = list(log.entries())
        entries_per_site.append(len(entries))
        for e in entries:
            dest_hist[len(e.dests)] += 1
            per_writer[e.writer] += 1
            staleness.append(int(proto.applied[e.writer]) - e.clock)
    return LogSnapshot(
        n_sites=len(list(protocols)),
        entries_per_site=tuple(entries_per_site),
        dest_list_histogram=dict(sorted(dest_hist.items())),
        entries_per_writer=dict(sorted(per_writer.items())),
        staleness=tuple(staleness),
    )


def format_log_report(snap: LogSnapshot) -> str:
    """Human-readable multi-line report of a log snapshot."""
    lines = [
        f"opt-track log structure across {snap.n_sites} sites",
        f"  entries/site : mean {snap.mean_entries:.1f}, max {snap.max_entries}",
        f"  dest lists   : mean {snap.mean_dests:.2f} destinations, "
        f"{snap.empty_marker_fraction:.0%} pure ∅-markers",
    ]
    if snap.staleness:
        s = summarize(snap.staleness)
        lines.append(
            f"  staleness    : median {s.p50:.0f} writes behind the "
            f"holder's applied clock (p95 {s.p95:.0f})"
        )
    hist = ", ".join(f"{k}:{v}" for k, v in snap.dest_list_histogram.items())
    lines.append(f"  |Dests| hist : {hist or '(empty)'}")
    return "\n".join(lines)
