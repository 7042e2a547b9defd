"""Causality-order graph construction.

The causality order ->co of Section II-A is the transitive closure of
program order (per-process operation sequence) united with read-from
order (a read is ordered after the write whose value it returned).  This
module materializes that relation as a :class:`CausalityGraph` over
operation nodes, and every node's strict write ancestry as a bitmask —
the one reachability query the checkers ask.

Node naming:

* a write is ``("w", site, clock)`` — its globally unique write id;
* a read is ``("r", site, k)`` — the k-th *operation* of that site.

Every node carries ``site``, ``var``, and (for reads) the ``rf`` write id
it returned, as attributes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.events import EventKind
from .history import HistoryRecorder

__all__ = ["CausalityGraph", "causality_graph", "read_node", "write_ancestry",
           "write_node", "write_order"]

Node = tuple


def write_node(site: int, clock: int) -> tuple:
    return ("w", site, clock)


def read_node(site: int, k: int) -> tuple:
    return ("r", site, k)


class CausalityGraph:
    """The po ∪ rf relation: node attributes in program order (sites
    interleaved as recorded), each node's predecessors, and each edge's
    order, ``edges[(a, b)]`` ∈ {``"po"``, ``"rf"``}."""

    __slots__ = ("nodes", "preds", "edges")

    def __init__(self) -> None:
        self.nodes: dict[Node, dict[str, Any]] = {}
        self.preds: dict[Node, list[Node]] = {}
        self.edges: dict[tuple[Node, Node], str] = {}

    def add_node(self, node: Node, **attrs: Any) -> None:
        self.nodes[node], self.preds[node] = attrs, []

    def add_edge(self, a: Node, b: Node, order: str) -> None:
        """A second edge between a pair only relabels it (a read of the
        site's own last write is po and rf)."""
        if (a, b) not in self.edges:
            self.preds[b].append(a)
        self.edges[(a, b)] = order

    def _peel(self) -> list[Node]:
        """Kahn: the nodes no cycle reaches, in a topological order."""
        indegree = {node: len(preds) for node, preds in self.preds.items()}
        succs: dict[Node, list[Node]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            succs[a].append(b)
        order = [node for node, d in indegree.items() if not d]
        for node in order:  # grows while it is walked
            for succ in succs[node]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    order.append(succ)
        return order

    def topological_order(self) -> Optional[list[Node]]:
        """Every node, each after its predecessors; ``None`` if cyclic."""
        order = self._peel()
        return order if len(order) == len(self.nodes) else None

    def cycle(self) -> list[tuple[Node, Node]]:
        """The edges of one cycle, in order; empty when acyclic.  Each
        unpeeled node has an unpeeled predecessor, so walking back loops."""
        left = set(self.nodes).difference(self._peel())
        if not left:
            return []
        node = min(left)
        seen: dict[Node, int] = {}
        path: list[Node] = []
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(p for p in self.preds[node] if p in left)
        loop = path[seen[node]:][::-1]
        return list(zip(loop, loop[1:] + loop[:1]))


def causality_graph(history: HistoryRecorder) -> CausalityGraph:
    """Build the po ∪ rf edge relation (whose closure is ->co).

    Operations are taken in each site's recorded order, which equals
    program order because application processes are sequential.
    """
    g = CausalityGraph()
    per_site_ops: dict[int, list[Node]] = {}

    # first pass: create nodes in program order
    for ev in history.operations():
        ops = per_site_ops.setdefault(ev.site, [])
        if ev.kind is EventKind.WRITE_OP:
            node = write_node(*ev.write_id)  # type: ignore[misc]
            g.add_node(node, site=ev.site, var=ev.var, kind="w",
                       value=ev.value, dests=ev.dests)
        else:
            node = read_node(ev.site, len(ops))
            g.add_node(node, site=ev.site, var=ev.var, kind="r",
                       rf=ev.write_id, value=ev.value)
        ops.append(node)

    # program-order edges
    for ops in per_site_ops.values():
        for a, b in zip(ops, ops[1:]):
            g.add_edge(a, b, "po")

    # read-from edges
    for node, data in g.nodes.items():
        if data["kind"] == "r" and data["rf"] is not None:
            w = write_node(*data["rf"])
            if w not in g.nodes:
                raise ValueError(f"read {node} returned unknown write id {data['rf']}")
            if g.nodes[w]["var"] != data["var"]:
                raise ValueError(
                    f"read {node} of var {data['var']} returned a write to "
                    f"var {g.nodes[w]['var']}"
                )
            g.add_edge(w, node, "rf")

    return g


def write_ancestry(
    g: CausalityGraph, order: list[Node]
) -> tuple[dict[Node, int], dict[Node, int]]:
    """``(write -> index, node -> bitmask of its strict write ancestors)``.

    Writes are indexed in node order; one pass over a topological
    ``order`` ORs each node's predecessors' masks — O(V·E/w) words.
    """
    writes = (node for node, data in g.nodes.items() if data["kind"] == "w")
    index = {w: i for i, w in enumerate(writes)}
    masks: dict[Node, int] = {}
    for node in order:
        mask = 0
        for pred in g.preds[node]:
            mask |= masks[pred]
            i = index.get(pred)
            if i is not None:
                mask |= 1 << i
        masks[node] = mask
    return index, masks


def write_order(history: HistoryRecorder) -> Callable[[Node, Node], bool]:
    """``before(a, b)``: write ``a`` ->co write ``b``, strictly; a write
    the history does not hold precedes and follows nothing."""
    g = causality_graph(history)
    order = g.topological_order()
    if order is None:
        raise ValueError("history is cyclic; run the main checker first")
    index, masks = write_ancestry(g, order)

    def before(a: Node, b: Node) -> bool:
        i = index.get(a)
        return i is not None and bool(masks.get(b, 0) >> i & 1)

    return before
