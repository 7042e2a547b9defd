"""Causality order as per-site prefix vectors.

The causality order ->co of Section II-A is the transitive closure of
program order (per-process operation sequence) united with read-from
order (a read is ordered after the write whose value it returned).
Application processes are sequential, so the strict ->co past of an
operation holds a *prefix* of each site's operations: n counters, the
per-process-counter encoding partial-replication timestamps start from.
:func:`causality_graph` computes them for every operation in one pass,
and ``a ->co b`` is ``past[b, site(a)] > pos(a)``.  The causal checker,
the session guarantees and the convergence check all call it.

In reports a write is ``("w", site, clock)``, its write id, and a read
``("r", site, k)``, the k-th *operation* of that site.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .history import EventKind, EventRecord, HistoryRecorder

__all__ = ["CausalityGraph", "causality_graph"]


class CausalityGraph:
    """A history's operations in recorded order, as parallel arrays: each
    one's ``site``, ``var``, place ``pos`` in its site's program order and
    read-from ``src`` (the op index of the write a read returned, else
    -1); ``by_site`` holds each site's op indices in program order and
    ``where`` each write id's op.  ``past[i, s]`` counts site s's first
    operations strictly ->co before op i.  ``malformed`` lists the
    order-sanity failures, ``(kind, description)``, that leave ->co
    undefined; with any, or when po ∪ rf is cyclic, ``past`` is not
    computed, and ``stalled`` holds where each site's cursor stopped."""

    def __init__(self, ops: list[EventRecord]) -> None:
        self.ops = ops
        self.malformed: list[tuple[str, str]] = []
        self.stalled: Optional[dict[int, int]] = None
        self.where: dict[tuple, int] = {}
        by_site: dict[int, list[int]] = {}
        pos = []
        for i, ev in enumerate(ops):
            pos.append(len(by_site.setdefault(ev.site, [])))
            by_site[ev.site].append(i)
            if ev.kind is not EventKind.WRITE_OP:
                continue
            if ev.write_id is None:
                self.malformed.append(("unnamed-write", f"site {ev.site}'s "
                                       f"operation {pos[i]} is a write without an id"))
            elif ev.write_id in self.where:
                self.malformed.append(("duplicate-write",
                                       f"write id {ev.write_id} is recorded twice"))
            else:
                self.where[ev.write_id] = i
        self.by_site = {s: np.array(seq, np.int64) for s, seq in by_site.items()}
        self.pos, self.src = np.array(pos, np.int64), np.full(len(ops), -1, np.int64)
        self.site = np.array([ev.site for ev in ops], np.int64)
        self.var = np.array([-1 if ev.var is None else ev.var for ev in ops], np.int64)
        self.is_write = np.array([ev.kind is EventKind.WRITE_OP for ev in ops], bool)
        for i in np.flatnonzero(~self.is_write):
            w = self.where.get(rf := ops[i].write_id, -1)  # type: ignore[arg-type]
            if rf is not None and w < 0:
                self.malformed.append(("unknown-write", f"read {self.name(i)} "
                                       f"returned unknown write id {rf}"))
            elif w >= 0 and ops[w].var != ops[i].var:
                self.malformed.append(("cross-variable-read", (
                    f"read {self.name(i)} of var {ops[i].var} returned a "
                    f"write to var {ops[w].var}")))
            self.src[i] = w
        self.past = np.zeros((len(ops), 1 + max(by_site, default=0)), np.int32)

    def name(self, i: int) -> tuple:
        ev = self.ops[i]
        return ("w", *ev.write_id) if self.is_write[i] else (  # type: ignore[misc]
            "r", ev.site, int(self.pos[i]))

    def precedes(self, a: int, b: int) -> bool:
        """Op ``a`` ->co op ``b``, strictly."""
        return bool(self.past[b, self.site[a]] > self.pos[a])

    def cycle(self) -> list[tuple[tuple, tuple]]:
        """The edges of one cycle, in order; empty when acyclic.  A stalled
        cursor rests on a read of an unordered write, and each op past a
        cursor has an unordered po predecessor, so walking back loops."""
        if (stalled := self.stalled) is None:
            return []
        node = min(seq[stalled[s]] for s, seq in self.by_site.items()
                   if stalled[s] < len(seq))
        seen: dict[int, int] = {}
        while node not in seen:
            seen[node] = len(seen)
            s, k = self.site[node], self.pos[node]
            node = int(self.src[node] if k == stalled[s] else self.by_site[s][k - 1])
        loop = [self.name(i) for i in list(seen)[seen[node]:][::-1]]
        return list(zip(loop, loop[1:] + loop[:1]))

    def acyclic(self) -> "CausalityGraph":
        if self.malformed:
            raise ValueError(self.malformed[0][1])
        if self.stalled is not None:
            raise ValueError("history is cyclic; run the main checker first")
        return self

    def apply_positions(
        self, applies: Sequence[EventRecord]
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Per apply site, in order of first apply, ``(site, seq, at, last)``:
        the op each apply there applied (-1 for an id the history lacks),
        its index in ``applies``, and per op its last position in ``seq``."""
        sites = np.array([ev.site for ev in applies], np.int64)
        ops = np.array([self.where.get(ev.write_id, -1)  # type: ignore[arg-type]
                        for ev in applies], np.int64)
        for site in dict.fromkeys(sites.tolist()):
            at = np.flatnonzero(sites == site)
            seq = ops[at]
            latest = dict(zip(seq.tolist(), range(len(seq))))  # a repeat: its last
            latest.pop(-1, None)
            last = np.full(len(self.ops), -1, np.int64)
            last[list(latest)] = list(latest.values())
            yield site, seq, at, last


def causality_graph(history: HistoryRecorder) -> CausalityGraph:
    """Every operation's strict ->co past as per-site prefix lengths.

    Each site's recorded operations are its program order (processes are
    sequential).  A site's cursor takes a run of ops without a read-from
    source at once (each row the previous one, its own site counted), and
    a read once its source's site has passed the source (the max with the
    source's row, the source counted).  po ∪ rf is cyclic exactly when
    every cursor stalls short of its end.
    """
    g = CausalityGraph(history.operations())
    if g.malformed:
        return g
    past, src, site, pos = g.past, g.src, g.site, g.pos
    cursor = dict.fromkeys(g.by_site, 0)
    stops = {s: [len(seq), *np.flatnonzero(src[seq] >= 0)[::-1]]  # next last
             for s, seq in g.by_site.items()}
    moved = True
    while moved:
        moved = False
        for s, seq in g.by_site.items():
            k, reads = cursor[s], stops[s]
            while k < len(seq):
                r = reads[-1]
                if k:
                    past[seq[k:r]] = past[seq[k - 1]]
                past[seq[k:r], s] = np.arange(k, r)
                moved |= r > k
                k = cursor[s] = r
                if r == len(seq) or pos[j := src[seq[r]]] >= cursor[t := site[j]]:
                    break
                row = past[seq[r]]
                row[:] = np.maximum(past[seq[r - 1]] if r else 0, past[j])
                row[t] = max(row[t], pos[j] + 1)
                row[s] = r
                reads.pop()
                k = cursor[s] = r + 1
                moved = True
    if any(k < len(g.by_site[s]) for s, k in cursor.items()):
        g.stalled = cursor
    return g
