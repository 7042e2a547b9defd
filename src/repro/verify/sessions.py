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
Those that ask about ->co call the main checker's builder,
:func:`~repro.verify.graph.causality_graph` (built once for all four in
:func:`check_all_session_guarantees`), and raise ``ValueError`` on a
cyclic history or a read of a write the history does not hold.
"""

from __future__ import annotations

from .graph import CausalityGraph, apply_masks, causality_graph, set_bits, write_node
from .history import EventKind, HistoryRecorder

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
    last_own_write: dict[tuple[int, int], tuple] = {}  # (site, var) -> node
    for node, data in g.nodes.items():
        site, var = data["site"], data["var"]
        if data["kind"] == "w":
            last_own_write[(site, var)] = node
            continue
        own = last_own_write.get((site, var))
        if own is None:
            continue
        if data["rf"] is None:
            violations.append(
                f"site {site} read ⊥ from var {var} after writing it ({own})")
            continue
        returned = write_node(*data["rf"])
        if g.precedes(returned, own):
            violations.append(
                f"site {site} read {returned} from var {var}, a strict "
                f"causal ancestor of its own write {own}")
    return violations


def check_monotonic_reads(history: HistoryRecorder) -> list[str]:
    """Per (site, var): the sequence of writes returned by reads never
    steps to a causal predecessor of an already-observed write."""
    return _monotonic_reads(causality_graph(history).acyclic())


def _monotonic_reads(g: CausalityGraph) -> list[str]:
    violations: list[str] = []
    last_seen: dict[tuple[int, int], tuple] = {}
    for data in g.nodes.values():
        if data["kind"] == "w":
            continue
        site, var = data["site"], data["var"]
        prev = last_seen.get((site, var))
        if data["rf"] is None:
            if prev is not None:
                violations.append(
                    f"site {site} read ⊥ from var {var} after observing {prev}")
            continue
        current = write_node(*data["rf"])
        # regression = current is a strict causal ancestor of prev
        if prev is not None and g.precedes(current, prev):
            violations.append(
                f"site {site} var {var}: read regressed from "
                f"{prev} to its causal ancestor {current}")
        last_seen[(site, var)] = current
    return violations


def check_monotonic_writes(history: HistoryRecorder) -> list[str]:
    """Each site's writes are applied at every site in issue order."""
    violations: list[str] = []
    applies: dict[int, list[tuple[int, int]]] = {}
    for ev in history.of_kind(EventKind.APPLY):
        applies.setdefault(ev.site, []).append(ev.write_id)  # type: ignore[arg-type]
    for site, seq in applies.items():
        last_clock: dict[int, int] = {}
        for writer, clock in seq:
            if clock <= last_clock.get(writer, 0):
                violations.append(
                    f"site {site} applied writer {writer}'s clock {clock} "
                    f"after {last_clock[writer]}"
                )
            else:
                last_clock[writer] = clock
    return violations


def check_writes_follow_reads(history: HistoryRecorder) -> list[str]:
    """A write issued after reading value v is applied after v's write at
    every site applying both; a repeated apply counts at its last apply,
    and each (site, source, successor) is reported once.

    Each write snapshots the mask of read sources its site saw before
    it; at each site, each set bit of ``read_sources[w] & applied &
    ~before[w]`` is a source applied after w."""
    return _writes_follow_reads(history, causality_graph(history).acyclic())


def _writes_follow_reads(history: HistoryRecorder, g: CausalityGraph) -> list[str]:
    index = g.write_index
    writes = list(index)
    seen: dict[int, int] = {}  # site -> mask of its read sources so far
    read_sources: dict[tuple, int] = {}
    for node, data in g.nodes.items():
        site = data["site"]
        if data["kind"] == "w":
            read_sources[node] = seen.get(site, 0)
        elif data["rf"] is not None:
            seen[site] = seen.get(site, 0) | 1 << index[write_node(*data["rf"])]
    violations: list[str] = []
    for site, _, before, applied in apply_masks(
            index, history.of_kind(EventKind.APPLY)):
        for w, prior in before.items():
            violations += (f"site {site} applied {w[1:]} (writes-follow-reads "
                           f"successor) before {writes[i][1:]}"
                           for i in set_bits(read_sources[w] & applied & ~prior))
    return violations


def check_all_session_guarantees(history: HistoryRecorder) -> dict[str, list[str]]:
    """Run all four checkers on one causality build; returns
    {guarantee: violations}."""
    g = causality_graph(history).acyclic()
    return {
        "read_your_writes": _read_your_writes(g),
        "monotonic_reads": _monotonic_reads(g),
        "monotonic_writes": check_monotonic_writes(history),
        "writes_follow_reads": _writes_follow_reads(history, g),
    }
