"""Causal-memory checker.

Validates a recorded execution against the causal memory model of
Ahamad et al. (Section II-A).  Three families of conditions are checked:

1. **Order sanity** — the po ∪ rf relation must be acyclic (an operation
   cannot causally depend on its own effects), and every read must
   return either |bot| or a value actually written to that variable.
2. **No stale reads** — for a read r(x)v returning write w, no other
   write w' to x may satisfy w ->co w' ->co r: the value was overwritten
   in the read's own causal past.  A read returning |bot| must have no
   write to x in its causal past at all.  This is the standard
   operational characterization of causal consistency violations.
3. **Causal apply order** — at every site, updates destined to it must
   be applied in an order extending ->co (this is what the activation
   predicates enforce; checking it catches predicate bugs even when no
   read happens to observe them).

Reachability over the causality DAG is computed once, in topological
order, with per-node ancestor bitmasks over write indices — O(V·E/w)
words; conditions 2 and 3 are word operations on those masks, which
keeps the checker usable on the paper's cells (n = 40, 600 ops/process:
~24 000 operations, ~230 000 applies, a few seconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.replication import Placement
from ..sim.events import EventKind, EventRecord
from .graph import CausalityGraph, apply_masks, causality_graph, set_bits, write_node
from .history import HistoryRecorder

__all__ = ["CausalityViolation", "CheckReport", "apply_order_violations",
           "check_causal_consistency"]


@dataclass(frozen=True)
class CausalityViolation:
    """One detected violation of the causal memory model."""

    kind: str
    description: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.description}"


@dataclass
class CheckReport:
    """Outcome of a checker run."""

    violations: list[CausalityViolation]
    n_operations: int
    n_writes: int
    n_reads: int
    n_applies: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            shown = "\n".join(str(v) for v in self.violations[:10])
            more = len(self.violations) - 10
            suffix = f"\n... and {more} more" if more > 0 else ""
            raise AssertionError(
                f"{len(self.violations)} causal consistency violation(s):\n"
                f"{shown}{suffix}"
            )


def check_causal_consistency(
    history: HistoryRecorder,
    placement: Optional[Placement] = None,
) -> CheckReport:
    """Check a recorded run; returns a report listing every violation.

    ``placement`` enables the apply-order check (condition 3), which
    needs to know each write's destination set; without it only the
    read-centric conditions are checked.
    """
    g = causality_graph(history)
    applies = history.of_kind(EventKind.APPLY)
    writes = [n for n, d in g.nodes.items() if d["kind"] == "w"]
    reads = [n for n, d in g.nodes.items() if d["kind"] == "r"]
    report = CheckReport([], n_operations=len(g.nodes), n_writes=len(writes),
                         n_reads=len(reads), n_applies=len(applies))
    violations = report.violations
    if g.order is None:
        cycle = f"po ∪ rf contains a cycle, e.g. {g.cycle()[:4]}"
        violations.append(CausalityViolation("cyclic-causality", cycle))
        return report

    write_index, masks = g.write_index, g.masks
    var_writes: dict[int, int] = {}  # var -> mask of its writes
    for w, i in write_index.items():
        var = g.nodes[w]["var"]
        var_writes[var] = var_writes.get(var, 0) | 1 << i

    # ------------------------------------------------------------------
    # condition 2: no stale reads
    # ------------------------------------------------------------------
    for r in reads:
        data = g.nodes[r]
        var, rf = data["var"], data["rf"]
        past = masks[r] & var_writes.get(var, 0)
        if rf is None:  # any causally-past write is fatal
            violations += (CausalityViolation(
                "stale-bottom-read",
                f"read {r} returned ⊥ but write {writes[i]} to var {var} "
                "is in its causal past") for i in set_bits(past))
            continue
        w = write_node(*rf)
        w_idx = write_index[w]
        for i in set_bits(past):
            # w' in causal past of r, and w ->co w'  =>  r saw an
            # overwritten value
            if i != w_idx and masks[writes[i]] >> w_idx & 1:
                violations.append(CausalityViolation(
                    "stale-read",
                    f"read {r} returned write {w} but {writes[i]} overwrote "
                    f"var {var} in the read's causal past"))

    # ------------------------------------------------------------------
    # condition 3: per-site apply order extends ->co
    # ------------------------------------------------------------------
    if placement is not None:
        violations += apply_order_violations(g, applies, placement)
    return report


def apply_order_violations(
    g: CausalityGraph, applies: list[EventRecord], placement: Placement,
) -> list[CausalityViolation]:
    """Condition 3 by bitmasks over ``g.write_index``: at each site, every
    causal predecessor of an applied write that is destined there must
    be applied, its last apply before the write's last apply.  Each set
    bit of ``masks[w] & destined & ~before[w]`` is one violation, in
    ``write_index`` order: O(writes / word) per apply."""
    write_index, masks = g.write_index, g.masks
    writes = list(write_index)
    out: list[CausalityViolation] = []
    for site, applied_seq, before, applied in apply_masks(write_index, applies):
        destined = _destined_mask(g, writes, site, placement)
        for w in applied_seq:
            if w not in write_index:
                out.append(CausalityViolation(
                    "phantom-apply", f"site {site} applied unknown write {w}"))
                continue
            for i in set_bits(masks[w] & destined & ~before[w]):
                w2 = writes[i]
                if applied >> i & 1:
                    out.append(CausalityViolation(
                        "apply-order",
                        f"site {site} applied {w} before its causal "
                        f"predecessor {w2}"))
                else:
                    out.append(CausalityViolation(
                        "missing-apply",
                        f"site {site} applied {w} but not its causal "
                        f"predecessor {w2} destined to it"))
    return out


def _destined_mask(g: CausalityGraph, writes: list[tuple], site: int,
                   placement: Placement) -> int:
    """Bits of the writes destined to ``site``: by a write's recorded
    ``dests`` (under elastic membership the final placement may disagree
    with the one the write used), else by the placement."""
    def here(data: dict) -> bool:
        dests = data["dests"]
        if dests is not None:
            return site in dests
        return placement.is_replicated_at(data["var"], site)

    return int("0" + "".join("1" if here(g.nodes[w]) else "0"
                             for w in reversed(writes)), 2)
