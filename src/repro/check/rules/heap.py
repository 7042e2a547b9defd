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

from ..callgraph import ModuleInfo
from ..lint import Finding, Rule

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

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        # calls resolve through the module's imports, so every spelling
        # (`heapq.f`, `hq.f` after `import heapq as hq`, a from-import
        # under any alias) names the same heapq function
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = mod.call_target(node)
            module, _, fn = (target or "").partition(".")
            if module == "heapq" and fn in _HEAP_FNS:
                yield self.finding(
                    mod, node, f"raw heap operation {target}() bypasses "
                    "the engine's (time, seq) tie-break"
                )
