"""Session-guarantee checkers.

Causal memory subsumes the four classic session guarantees (Terry et
al.), so every protocol in this repository must satisfy all of them —
but checking them *separately* localizes failures far better than the
full causal-memory checker, and the guarantees are meaningful to
downstream users on their own:

* **read your writes** — a read observes the issuing site's own latest
  preceding write to that variable, or something causally newer;
* **monotonic reads** — successive reads of a variable by one site never
  go causally backwards;
* **monotonic writes** — one site's writes are applied everywhere in
  issue order (per destination site);
* **writes follow reads** — a write issued after a read is ordered after
  the read's source write at every common destination.

All checkers consume the same :class:`~repro.verify.history.HistoryRecorder`
as the main checker and return lists of violation strings (empty = pass).
Those that ask about ->co call :func:`~repro.verify.graph.causality_graph`
and raise ``ValueError`` on a history it cannot order (cyclic or
malformed); :func:`check_all_session_guarantees` builds it, and collects
the APPLY events, once for all four.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import CausalityGraph, causality_graph
from .history import EventKind, EventRecord, HistoryRecorder

__all__ = [
    "check_read_your_writes",
    "check_monotonic_reads",
    "check_monotonic_writes",
    "check_writes_follow_reads",
    "check_all_session_guarantees",
]


def check_read_your_writes(history: HistoryRecorder) -> list[str]:
    """A site never reads causally *behind* its own preceding write.

    The causal-memory formulation: after writing w', a read of the same
    variable may return w' itself or any write not causally before w'
    (concurrent writes are legal — some causal serialization orders them
    after w'), but never ⊥ and never a strict causal ancestor of w'.
    """
    return _read_your_writes(causality_graph(history).acyclic())


def _read_your_writes(g: CausalityGraph) -> list[str]:
    violations: list[str] = []
    last_own_write: dict[tuple[int, int], int] = {}  # (site, var) -> op
    for i, ev in enumerate(g.ops):
        own = last_own_write.get((ev.site, ev.var))
        if g.is_write[i]:
            last_own_write[(ev.site, ev.var)] = i
        elif own is not None and g.src[i] < 0:
            violations.append(f"site {ev.site} read ⊥ from var {ev.var} "
                              f"after writing it ({g.name(own)})")
        elif own is not None and g.precedes(g.src[i], own):
            violations.append(
                f"site {ev.site} read {g.name(g.src[i])} from var {ev.var}, a "
                f"strict causal ancestor of its own write {g.name(own)}")
    return violations


def check_monotonic_reads(history: HistoryRecorder) -> list[str]:
    """Per (site, var): the sequence of writes returned by reads never
    steps to a causal predecessor of an already-observed write."""
    return _monotonic_reads(causality_graph(history).acyclic())


def _monotonic_reads(g: CausalityGraph) -> list[str]:
    violations: list[str] = []
    last_seen: dict[tuple[int, int], int] = {}  # (site, var) -> write op
    for i in np.flatnonzero(~g.is_write):
        site, var, current = g.ops[i].site, g.ops[i].var, g.src[i]
        prev = last_seen.get((site, var))
        if current < 0:
            if prev is not None:
                violations.append(f"site {site} read ⊥ from var {var} "
                                  f"after observing {g.name(prev)}")
            continue
        # regression = current is a strict causal ancestor of prev
        if prev is not None and g.precedes(current, prev):
            violations.append(
                f"site {site} var {var}: read regressed from "
                f"{g.name(prev)} to its causal ancestor {g.name(current)}")
        last_seen[(site, var)] = current
    return violations


def check_monotonic_writes(history: HistoryRecorder) -> list[str]:
    """Each site's writes are applied at every site in issue order: an
    apply fails when an earlier apply there of the same writer had a
    clock at least as high.  An apply that names no write is listed, as
    the causal checker's ``unnamed-apply``, and left out."""
    return _monotonic_writes(history.of_kind(EventKind.APPLY))


def _monotonic_writes(applies: list[EventRecord]) -> list[str]:
    """Per apply site, in order of first apply, one pass over its applies
    grouped by writer: clock ranks offset per group make one running max
    serve every writer."""
    violations = [f"site {ev.site} applied a write without an id at time {ev.time}"
                  for ev in applies if ev.write_id is None]
    if violations:
        applies = [ev for ev in applies if ev.write_id is not None]
    site = np.fromiter((ev.site for ev in applies), np.int64, len(applies))
    ids = chain.from_iterable(ev.write_id for ev in applies)  # type: ignore[arg-type]
    writer, clock = np.fromiter(ids, np.int64, 2 * len(applies)).reshape(-1, 2).T
    clocks, rank = np.unique(clock, return_inverse=True)
    for s in dict.fromkeys(site.tolist()):
        at = np.flatnonzero(site == s)
        at = at[np.argsort(writer[at], kind="stable")]
        first = np.append(True, writer[at][1:] != writer[at][:-1])
        key = np.cumsum(first) * len(clocks) + rank[at]
        seen = np.append(-1, np.maximum.accumulate(key)[:-1])
        bad = np.flatnonzero(~first & (seen >= key))
        bad = bad[np.argsort(at[bad])]  # back in apply order
        violations += (f"site {s} applied writer {w}'s clock {c} after {b}"
                       for w, c, b in zip(writer[at[bad]].tolist(),
                                          clock[at[bad]].tolist(),
                                          clocks[seen[bad] % len(clocks)].tolist()))
    return violations


def check_writes_follow_reads(history: HistoryRecorder) -> list[str]:
    """A write issued after reading value v is applied after v's write at
    every site applying both; a repeated apply counts at its last apply,
    and each (site, source, successor) is reported once.

    Per (apply site, writer), the running max of the last applies of the
    sources the writer read is judged against each of its writes' last
    apply; only the writes that fail list their late sources."""
    return _writes_follow_reads(history.of_kind(EventKind.APPLY),
                                causality_graph(history).acyclic())


def _writes_follow_reads(applies: list[EventRecord], g: CausalityGraph) -> list[str]:
    violations: list[str] = []
    for site, _, _, last in g.apply_positions(applies):
        late = []
        for seq in g.by_site.values():
            reads, writes = seq[g.src[seq] >= 0], seq[g.is_write[seq]]
            if not len(reads):
                continue
            seen = np.maximum.accumulate(last[g.src[reads]])
            k = np.searchsorted(g.pos[reads], g.pos[writes])
            fails = (last[writes] >= 0) & (k > 0) & (seen[k - 1] > last[writes])
            for w, n in zip(writes[fails], k[fails]):
                sources = np.unique(g.src[reads[:n]])
                late += ((last[w], s, w) for s in sources[last[sources] > last[w]])
        violations += (f"site {site} applied {g.ops[w].write_id} (writes-follow-"
                       f"reads successor) before {g.ops[s].write_id}"
                       for _, s, w in sorted(late))
    return violations


def check_all_session_guarantees(history: HistoryRecorder) -> dict[str, list[str]]:
    """Run all four checkers on one causality build and one collection
    of the APPLY events; returns {guarantee: violations}."""
    g = causality_graph(history).acyclic()
    applies = history.of_kind(EventKind.APPLY)
    return {
        "read_your_writes": _read_your_writes(g),
        "monotonic_reads": _monotonic_reads(g),
        "monotonic_writes": _monotonic_writes(applies),
        "writes_follow_reads": _writes_follow_reads(applies, g),
    }
