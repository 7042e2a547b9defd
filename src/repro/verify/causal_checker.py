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
words — which keeps the checker usable on histories with thousands of
operations (integration-test scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.replication import Placement
from ..sim.events import EventKind
from .graph import causality_graph, write_ancestry, write_node
from .history import HistoryRecorder

__all__ = ["CausalityViolation", "CheckReport", "check_causal_consistency"]


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
    violations: list[CausalityViolation] = []
    g = causality_graph(history)
    writes = [n for n, d in g.nodes.items() if d["kind"] == "w"]
    reads = [n for n, d in g.nodes.items() if d["kind"] == "r"]

    order = g.topological_order()
    if order is None:
        cycle = f"po ∪ rf contains a cycle, e.g. {g.cycle()[:4]}"
        return CheckReport(
            violations=[CausalityViolation("cyclic-causality", cycle)],
            n_operations=len(g.nodes), n_writes=len(writes), n_reads=len(reads),
            n_applies=len(history.of_kind(EventKind.APPLY)),
        )

    write_index, masks = write_ancestry(g, order)
    writes_by_var: dict[int, list[tuple]] = {}
    for w in writes:
        writes_by_var.setdefault(g.nodes[w]["var"], []).append(w)

    # ------------------------------------------------------------------
    # condition 2: no stale reads
    # ------------------------------------------------------------------
    for r in reads:
        data = g.nodes[r]
        var = data["var"]
        rf = data["rf"]
        r_mask = masks[r]
        if rf is None:
            for w2 in writes_by_var.get(var, ()):  # any causally-past write is fatal
                if r_mask >> write_index[w2] & 1:
                    violations.append(
                        CausalityViolation(
                            "stale-bottom-read",
                            f"read {r} returned ⊥ but write {w2} to var {var} "
                            "is in its causal past",
                        )
                    )
            continue
        w = write_node(*rf)
        w_idx = write_index[w]
        for w2 in writes_by_var.get(var, ()):
            if w2 == w:
                continue
            i2 = write_index[w2]
            # w' in causal past of r, and w ->co w'  =>  r saw an
            # overwritten value
            if (r_mask >> i2 & 1) and (masks[w2] >> w_idx & 1):
                violations.append(
                    CausalityViolation(
                        "stale-read",
                        f"read {r} returned write {w} but {w2} overwrote "
                        f"var {var} in the read's causal past",
                    )
                )

    # ------------------------------------------------------------------
    # condition 3: per-site apply order extends ->co
    # ------------------------------------------------------------------
    n_applies = 0
    if placement is not None:
        applies_by_site: dict[int, list[tuple]] = {}
        for ev in history.of_kind(EventKind.APPLY):
            n_applies += 1
            applies_by_site.setdefault(ev.site, []).append(write_node(*ev.write_id))
        for site, applied_seq in applies_by_site.items():
            position = {w: k for k, w in enumerate(applied_seq)}
            applied_set = set(applied_seq)
            for w in applied_seq:
                if w not in write_index:
                    violations.append(
                        CausalityViolation(
                            "phantom-apply",
                            f"site {site} applied unknown write {w}",
                        )
                    )
                    continue
                mask = masks[w]
                for w2, i2 in write_index.items():
                    if not (mask >> i2 & 1):
                        continue
                    w2_dests = g.nodes[w2].get("dests")
                    if w2_dests is not None:
                        # recorded at write time — authoritative under
                        # elastic membership, where the final placement
                        # may disagree with the one the write used
                        if site not in w2_dests:
                            continue
                    elif not placement.is_replicated_at(g.nodes[w2]["var"], site):
                        continue  # not destined here; nothing to order
                    if w2 not in applied_set:
                        violations.append(
                            CausalityViolation(
                                "missing-apply",
                                f"site {site} applied {w} but not its causal "
                                f"predecessor {w2} destined to it",
                            )
                        )
                    elif position[w2] > position[w]:
                        violations.append(
                            CausalityViolation(
                                "apply-order",
                                f"site {site} applied {w} before its causal "
                                f"predecessor {w2}",
                            )
                        )
    else:
        n_applies = len(history.of_kind(EventKind.APPLY))

    return CheckReport(
        violations=violations,
        n_operations=len(writes) + len(reads),
        n_writes=len(writes),
        n_reads=len(reads),
        n_applies=n_applies,
    )
