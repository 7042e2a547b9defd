"""SIM004: mutable default arguments.

A ``def f(x, dests=[])`` default is created once and shared across every
call — state leaks between protocol instances and between *runs* inside
one process, which is exactly the cross-instance aliasing this
repository's determinism contract forbids.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import ModuleInfo
from ..lint import Finding, Rule

__all__ = ["MutableDefaultRule"]

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)


class MutableDefaultRule(Rule):
    code = "SIM004"
    name = "mutable-default"
    rationale = (
        "a mutable default is shared across calls and protocol "
        "instances — hidden state that survives between runs"
    )
    hint = "default to None and create the container inside the function"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is None:
                    continue
                if _is_mutable(default):
                    yield self.finding(
                        mod, default,
                        f"mutable default argument in {node.name}()",
                    )


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False
