"""Causal-memory checker.

Validates a recorded execution against the causal memory model of
Ahamad et al. (Section II-A).  Three families of conditions are checked:

1. **Order sanity** — every write has one id, every read returns |bot|
   or a write to its variable that the history holds, and po ∪ rf is
   acyclic (an operation cannot causally depend on its own effects).
   Without these ->co is undefined, so the check stops at them.
2. **No stale reads** — for a read r(x)v returning write w, no other
   write w' to x may satisfy w ->co w' ->co r: the value was overwritten
   in the read's own causal past.  A read returning |bot| must have no
   write to x in its causal past at all.  This is the standard
   operational characterization of causal consistency violations.
3. **Causal apply order** — at every site, updates destined to it must
   be applied in an order extending ->co (this is what the activation
   predicates enforce; checking it catches predicate bugs even when no
   read happens to observe them).  An apply that names no write is
   reported as ``unnamed-apply`` and left out of it.

->co is per-site prefix vectors (:mod:`repro.verify.graph`), so each
condition is a few numpy passes per writer, broken history or not, and a
report counts every violation per kind but lists the first :data:`LISTED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..memory.replication import Placement
from .graph import CausalityGraph, causality_graph
from .history import EventKind, EventRecord, HistoryRecorder

__all__ = ["LISTED", "CausalityViolation", "CheckReport", "check_causal_consistency"]

#: violations a report lists per kind; the rest are counted in ``totals``
LISTED = 20

_TEXT = {
    "stale-bottom-read": "read {r} returned ⊥ but write {b} to var {x} is in its causal past",
    "stale-read": "read {r} returned write {a} but {b} overwrote var {x} in the read's causal past",
    "phantom-apply": "site {s} applied unknown write {a}",
    "unnamed-apply": "site {s} applied a write without an id at time {t}",
    "apply-order": "site {s} applied {a} before its causal predecessor {b}",
    "missing-apply": "site {s} applied {a} but not its causal predecessor {b} destined to it",
}


@dataclass(frozen=True)
class CausalityViolation:
    """One detected violation of the causal memory model."""

    kind: str
    description: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.description}"


@dataclass
class CheckReport:
    """Outcome of a checker run: the exact count of violations per kind
    and, in detection order, the first :data:`LISTED` of each kind."""

    violations: list[CausalityViolation]
    n_operations: int
    n_writes: int
    n_reads: int
    n_applies: int
    totals: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.totals

    def render(self) -> str:
        """The per-kind totals, then the listing."""
        kinds = ", ".join(f"{k} {n}" for k, n in self.totals.items())
        return "\n".join([f"{sum(self.totals.values())} causal consistency violation(s) "
                          f"({kinds}), {len(self.violations)} listed:",
                          *(f"  {v}" for v in self.violations)])

    def raise_if_violated(self) -> None:
        if self.totals:
            raise AssertionError(self.render())


def check_causal_consistency(
    history: HistoryRecorder,
    placement: Optional[Placement] = None,
) -> CheckReport:
    """Check a recorded run; returns a report counting every violation.

    ``placement`` enables the apply-order check (condition 3), which
    needs each write's destination set where the history did not record
    it; without it only the read-centric conditions are checked.
    """
    g = causality_graph(history)
    applies = history.of_kind(EventKind.APPLY)
    n_writes = int(g.is_write.sum())
    report = CheckReport([], n_operations=len(g.ops), n_writes=n_writes,
                         n_reads=len(g.ops) - n_writes, n_applies=len(applies))
    sanity = list(g.malformed)
    if g.stalled is not None:
        sanity.append(("cyclic-causality", f"po ∪ rf contains a cycle, e.g. {g.cycle()[:4]}"))
    for kind, description in sanity:
        _count(report, kind, 1)
        report.violations.append(CausalityViolation(kind, description))
    unnamed = [ev for ev in applies if ev.write_id is None]
    if unnamed:  # a record no condition can read: listed, then left out
        _count(report, "unnamed-apply", len(unnamed))
        report.violations += (CausalityViolation("unnamed-apply", _TEXT[
            "unnamed-apply"].format(s=ev.site, t=ev.time)) for ev in unnamed[:LISTED])
        applies = [ev for ev in applies if ev.write_id is not None]
    if not sanity:
        _stale_reads(report, g)
        if placement is not None:
            _apply_order(report, g, applies, placement)
    return report


def _stale_reads(report: CheckReport, g: CausalityGraph) -> None:
    """Condition 2.  Per writer, the last of its writes to a read's
    variable inside the read's past (bisected) is stale when it follows
    the returned write, or the read returned ⊥; only a flagged read is
    compared with every write to its variable."""
    reads, writes = np.flatnonzero(~g.is_write), np.flatnonzero(g.is_write)
    var, src, past = g.var[reads], g.src[reads], g.past[reads]
    span, stale = len(g.ops) + 1, np.zeros(len(reads), bool)
    for j, seq in g.by_site.items():
        w = seq[g.is_write[seq]]
        if not len(w):
            continue
        keys, w = np.array(sorted(zip(g.var[w] * span + g.pos[w], w))).T  # by (var, pos)
        hi = np.searchsorted(keys, var * span + past[:, j])
        seen = hi > np.searchsorted(keys, var * span)
        stale |= seen & ((src < 0) | (g.past[w[hi - 1], g.site[src]] > g.pos[src]))
    for i in reads[stale]:
        x, rf = g.ops[i].var, g.src[i]
        xs = writes[g.var[writes] == x]
        over = xs[(g.past[i, g.site[xs]] > g.pos[xs])
                  & ((rf < 0) | (g.past[xs, g.site[rf]] > g.pos[rf]))]
        kind = "stale-bottom-read" if rf < 0 else "stale-read"
        _count(report, kind, len(over))
        report.violations += (CausalityViolation(kind, _TEXT[kind].format(
            r=g.name(i), a=rf >= 0 and g.name(rf), b=g.name(w2), x=x))
            for w2 in over[:_room(report, kind)])


def _apply_order(report: CheckReport, g: CausalityGraph,
                 applies: list[EventRecord], placement: Placement) -> None:
    """Condition 3: at each site, every causal predecessor of an applied
    write that is destined there (by its recorded ``dests``, else by the
    placement) must be applied, its last apply before the write's.  Per
    (site, writer), a write fails when the running max of the last applies
    of the writer's destined writes, over the prefix its vector names,
    comes after its own; only failed cells count the late and missing."""
    writes = np.flatnonzero(g.is_write)
    dests = [g.ops[i].dests if g.ops[i].dests is not None
             else placement.replicas(g.ops[i].var) for i in writes]
    cols = np.array([site for d in dests for site in d], np.int64)
    width = 1 + max([int(cols.max(initial=0))] + [ev.site for ev in applies])
    destined = np.zeros((len(g.ops), width), bool)
    destined[np.repeat(writes, [len(d) for d in dests]), cols] = True
    for site, seq, at, last in g.apply_positions(applies):
        applied, never = np.flatnonzero(last >= 0), len(seq)
        late, missing = np.zeros((2, len(applied)), np.int64)
        cells = []
        for j, ops in g.by_site.items():
            here = destined[ops, site]
            pred = ops[here]
            lasts = np.where(last[pred] < 0, never, last[pred])
            k = np.cumsum(np.append(0, here))[g.past[applied, j]]  # preds in the past
            latest = np.maximum.accumulate(np.append(-1, lasts))  # of the first k
            bad = np.flatnonzero(latest[k] > last[applied])
            if len(bad):
                cells.append((pred, lasts, k, never))
                late[bad] += _dominance(lasts, k[bad], last[applied[bad]])
                missing[bad] += _dominance(lasts, k[bad], np.full(len(bad), never - 1))
        times = np.bincount(seq[seq >= 0], minlength=len(g.ops))[applied]
        _count(report, "phantom-apply", np.count_nonzero(seq < 0))
        _count(report, "apply-order", ((late - missing) * times).sum())
        _count(report, "missing-apply", (missing * times).sum())
        carries = np.zeros((2, len(g.ops) + 1), bool)  # a phantom's -1: False
        carries[0, applied[late > missing]] = carries[1, applied[missing > 0]] = True
        entries = [(n, -1, "phantom-apply")
                   for n in np.flatnonzero(seq < 0)[:_room(report, "phantom-apply")]]
        for kind, hit in (("apply-order", carries[0, seq]), ("missing-apply", carries[1, seq])):
            room = _room(report, kind)  # each hit carries one or more
            found = [(n, b) for n in np.flatnonzero(hit)[:room]
                     for b, gone in _late(cells, np.searchsorted(applied, seq[n]), last[seq[n]])
                     if gone == (kind == "missing-apply")]
            entries += [(n, b, kind) for n, b in found[:room]]
        report.violations += (CausalityViolation(kind, _TEXT[kind].format(
            s=site, a=g.name(seq[n]) if b >= 0 else ("w", *applies[at[n]].write_id),
            b=b >= 0 and g.name(b))) for n, b, kind in sorted(entries))


def _late(cells: list, row: int, applied_at: int) -> list[tuple[int, bool]]:
    """``(op, never)`` per predecessor of applied ``row`` applied late or never."""
    return sorted((pred[m], lasts[m] == never) for pred, lasts, k, never in cells
                  for m in np.flatnonzero(lasts[:k[row]] > applied_at))


def _count(report: CheckReport, kind: str, n: int) -> None:
    if n:
        report.totals[kind] = report.totals.get(kind, 0) + int(n)


def _room(report: CheckReport, kind: str) -> int:
    """How many more violations of ``kind`` the report lists."""
    return LISTED - sum(v.kind == kind for v in report.violations)


def _dominance(values: np.ndarray, prefix: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per query q, how many of ``values[:prefix[q]]`` exceed ``bound[q]``,
    in blocks of queries that keep ~2**22 cells in memory."""
    step, index = max(1, (1 << 22) // len(values)), np.arange(len(values))
    return np.concatenate([(values > bound[a:a + step, None]).sum(
        1, where=index < prefix[a:a + step, None]) for a in range(0, len(prefix), step)])
