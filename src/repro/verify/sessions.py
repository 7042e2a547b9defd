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
"""

from __future__ import annotations

from typing import Optional

from ..memory.replication import Placement
from ..sim.events import EventKind
from .graph import write_node, write_order
from .history import HistoryRecorder

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
    before = write_order(history)
    violations: list[str] = []
    last_own_write: dict[tuple[int, int], tuple] = {}  # (site, var) -> node
    for ev in history.operations():
        if ev.kind is EventKind.WRITE_OP:
            last_own_write[(ev.site, ev.var)] = write_node(*ev.write_id)
            continue
        own = last_own_write.get((ev.site, ev.var))
        if own is None:
            continue
        if ev.write_id is None:
            violations.append(
                f"site {ev.site} read ⊥ from var {ev.var} after writing it ({own})"
            )
            continue
        returned = write_node(*ev.write_id)
        if before(returned, own):
            violations.append(
                f"site {ev.site} read {returned} from var {ev.var}, a strict "
                f"causal ancestor of its own write {own}"
            )
    return violations


def check_monotonic_reads(history: HistoryRecorder) -> list[str]:
    """Per (site, var): the sequence of writes returned by reads never
    steps to a causal predecessor of an already-observed write."""
    before = write_order(history)
    violations: list[str] = []
    last_seen: dict[tuple[int, int], tuple] = {}
    for ev in history.reads():
        key = (ev.site, ev.var)
        prev = last_seen.get(key)
        if ev.write_id is None:
            if prev is not None:
                violations.append(
                    f"site {ev.site} read ⊥ from var {ev.var} after observing {prev}"
                )
            continue
        current = write_node(*ev.write_id)
        # regression = current is a strict causal ancestor of prev
        if prev is not None and before(current, prev):
            violations.append(
                f"site {ev.site} var {ev.var}: read regressed from "
                f"{prev} to its causal ancestor {current}"
            )
        last_seen[key] = current
    return violations


def check_monotonic_writes(
    history: HistoryRecorder, placement: Optional[Placement] = None
) -> list[str]:
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


def check_writes_follow_reads(
    history: HistoryRecorder, placement: Optional[Placement] = None
) -> list[str]:
    """A write issued after reading value v is applied after v's write at
    every site applying both."""
    violations: list[str] = []
    # w2 (issued after site read w1) must follow w1 wherever both apply
    constraints: list[tuple[tuple, tuple]] = []
    last_read_source: dict[int, list] = {}
    for ev in history.operations():
        if ev.kind is EventKind.READ_OP:
            if ev.write_id is not None:
                last_read_source.setdefault(ev.site, []).append(ev.write_id)
        else:
            for source in last_read_source.get(ev.site, ()):
                constraints.append((source, ev.write_id))  # type: ignore[arg-type]
    positions: dict[int, dict[tuple, int]] = {}
    for ev in history.of_kind(EventKind.APPLY):
        site_positions = positions.setdefault(ev.site, {})
        site_positions[ev.write_id] = len(site_positions)
    for before, after in constraints:
        for site, pos in positions.items():
            if before in pos and after in pos and pos[before] > pos[after]:
                violations.append(
                    f"site {site} applied {after} (writes-follow-reads "
                    f"successor) before {before}"
                )
    return violations


def check_all_session_guarantees(
    history: HistoryRecorder, placement: Optional[Placement] = None
) -> dict[str, list[str]]:
    """Run all four checkers; returns {guarantee: violations}."""
    return {
        "read_your_writes": check_read_your_writes(history),
        "monotonic_reads": check_monotonic_reads(history),
        "monotonic_writes": check_monotonic_writes(history, placement),
        "writes_follow_reads": check_writes_follow_reads(history, placement),
    }
