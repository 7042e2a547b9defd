"""Causality-order graph construction.

The causality order ->co of Section II-A is the transitive closure of
program order (per-process operation sequence) united with read-from
order (a read is ordered after the write whose value it returned).  This
module materializes that relation as a :class:`CausalityGraph` over
operation nodes, with a topological order and every node's strict write
ancestry as a bitmask — the one reachability query the checkers ask.
:func:`causality_graph` builds all of it in one call; the causal
checker, the session guarantees and the convergence check all call it,
and :func:`apply_masks` gives condition 3 and
writes-follow-reads each site's apply order as masks over the same
write indices.

Node naming:

* a write is ``("w", site, clock)`` — its globally unique write id;
* a read is ``("r", site, k)`` — the k-th *operation* of that site.

Every node carries ``site``, ``var``, and (for reads) the ``rf`` write id
it returned, as attributes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from .history import EventKind, EventRecord, HistoryRecorder

__all__ = ["CausalityGraph", "apply_masks", "causality_graph", "read_node",
           "set_bits", "write_node"]

Node = tuple


def write_node(site: int, clock: int) -> tuple:
    return ("w", site, clock)


def read_node(site: int, k: int) -> tuple:
    return ("r", site, k)


class CausalityGraph:
    """The po ∪ rf relation: node attributes in program order (sites
    interleaved as recorded), each node's predecessors, and each edge's
    order, ``edges[(a, b)]`` ∈ {``"po"``, ``"rf"``}.  Once built, also a
    topological ``order``, each write's bit in node order, and each
    node's strict write ancestry over those bits (``None``, empty and
    empty when cyclic)."""

    __slots__ = ("nodes", "preds", "edges", "order", "write_index", "masks")

    def __init__(self) -> None:
        self.nodes: dict[Node, dict[str, Any]] = {}
        self.preds: dict[Node, list[Node]] = {}
        self.edges: dict[tuple[Node, Node], str] = {}
        self.order: Optional[list[Node]] = None
        self.write_index: dict[Node, int] = {}
        self.masks: dict[Node, int] = {}

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

    def acyclic(self) -> "CausalityGraph":
        if self.order is None:
            raise ValueError("history is cyclic; run the main checker first")
        return self

    def precedes(self, a: Node, b: Node) -> bool:
        """Write ``a`` ->co node ``b``, strictly (False for unknown ``a``)."""
        i = self.write_index.get(a)
        return i is not None and bool(self.masks.get(b, 0) >> i & 1)


def causality_graph(history: HistoryRecorder) -> CausalityGraph:
    """Build the po ∪ rf edge relation (whose closure is ->co), its
    topological order and every node's write ancestry.

    Operations are taken in each site's recorded order, which equals
    program order because application processes are sequential.  Writes
    are indexed in node order; one pass over the topological order ORs
    each node's predecessors' masks — O(V·E/w) words.
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

    order = g._peel()
    if len(order) == len(g.nodes):  # acyclic: every node after its preds
        g.order = order
        writes = (node for node, data in g.nodes.items() if data["kind"] == "w")
        index = g.write_index = {w: i for i, w in enumerate(writes)}
        masks = g.masks
        for node in order:
            mask = 0
            for pred in g.preds[node]:
                mask |= masks[pred]
                i = index.get(pred)
                if i is not None:
                    mask |= 1 << i
            masks[node] = mask
    return g


def apply_masks(
    write_index: dict[Node, int], applies: Iterable[EventRecord]
) -> Iterator[tuple[int, list[Node], dict[Node, int], int]]:
    """Per apply site, in order of first apply, ``(site, seq, before,
    applied)``: the site's applied write nodes in apply order (repeats and
    unknown writes included), per known write w the mask of writes whose
    *last* apply comes before w's last apply, and all writes applied."""
    by_site: dict[int, list[Node]] = {}
    for ev in applies:
        by_site.setdefault(ev.site, []).append(write_node(*ev.write_id))
    for site, seq in by_site.items():
        last = {w: k for k, w in enumerate(seq)}
        before: dict[Node, int] = {}
        applied = 0
        for k, w in enumerate(seq):
            i = write_index.get(w)
            if i is not None and last[w] == k:
                before[w] = applied
                applied |= 1 << i
        yield site, seq, before, applied


def set_bits(mask: int) -> Iterator[int]:
    """The indices of ``mask``'s set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
