"""SIM007: raw heapq use outside the simulation kernel.

The event queue's total order is ``(time, seq)`` — the insertion
sequence number is what makes equal-timestamp events fire in FIFO order
and two runs bit-identical.  A raw ``heapq.heappush`` elsewhere invents
a second priority queue *without* that tie-break: equal keys then pop
in heap-internal order, which depends on arrival interleaving.  All
time-ordered scheduling must go through
:meth:`repro.sim.engine.Simulator.schedule` (a cancellable event) or
:meth:`~repro.sim.engine.Simulator.post` (a call nobody cancels).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, Rule, SourceFile
from ._util import call_name

__all__ = ["RawHeapqRule"]

_HEAP_FNS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace",
     "merge", "nsmallest", "nlargest"}
)


class RawHeapqRule(Rule):
    code = "SIM007"
    name = "raw-heapq"
    rationale = (
        "a raw heap has no (time, seq) tie-break; equal-priority pops "
        "come out in heap-internal order and differ between runs"
    )
    hint = (
        "schedule through Simulator.schedule()/schedule_at(), whose "
        "ScheduledEvent ordering is (time, seq)"
    )

    def applies_to(self, display_path: str) -> bool:
        # the kernel itself is the one sanctioned heap user
        return not display_path.replace("\\", "/").endswith("sim/engine.py")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        heap_fn_aliases: set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "heapq":
                for alias in node.names:
                    if alias.name in _HEAP_FNS:
                        heap_fn_aliases.add(alias.asname or alias.name)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if (
                (len(parts) == 2 and parts[0] == "heapq" and parts[1] in _HEAP_FNS)
                or (len(parts) == 1 and parts[0] in heap_fn_aliases)
            ):
                yield self.finding(
                    src, node, f"raw heap operation {name}() bypasses the "
                    "engine's (time, seq) tie-break"
                )
