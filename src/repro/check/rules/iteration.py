"""SIM003: iteration over sets on determinism-critical paths.

CPython set iteration order depends on insertion history *and* on
``PYTHONHASHSEED`` for str/bytes/tuple elements — two runs of the same
seed may visit a destination set in different orders, which reorders
message sends and breaks bit-determinism.  In ``core/``, ``sim/`` and
``verify/`` every set must be materialized through ``sorted(...)``
before its order can matter.

The rule is deliberately scoped: order-insensitive folds (``len``,
``sum``, ``min``, ``max``, ``any``, ``all``, membership tests, set
algebra) are not flagged — only ``for`` loops, comprehensions, and
order-preserving materializations (``list(s)``, ``tuple(s)``,
``enumerate(s)``) whose input is statically known to be a set.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..callgraph import ModuleInfo
from ..lint import Finding, Rule
from .._util import is_hot_path

__all__ = ["SetIterationRule"]

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_ORDERED_MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})


class SetIterationRule(Rule):
    code = "SIM003"
    name = "set-iteration"
    rationale = (
        "set iteration order is hash/insertion dependent; ordering "
        "leaks into message schedules and breaks bit-determinism"
    )
    hint = "iterate sorted(the_set) (or justify with a suppression)"

    def applies_to(self, display_path: str) -> bool:
        return is_hot_path(display_path)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        table = _SetSymbols.collect(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.For):
                reason = table.set_reason(node.iter)
                if reason:
                    yield self.finding(
                        mod, node.iter, f"for-loop over {reason}"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    reason = table.set_reason(gen.iter)
                    if reason:
                        yield self.finding(
                            mod, gen.iter, f"comprehension over {reason}"
                        )
            elif isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Name)
                    and fn.id in _ORDERED_MATERIALIZERS
                    and len(node.args) == 1
                ):
                    reason = table.set_reason(node.args[0])
                    if reason:
                        yield self.finding(
                            mod, node,
                            f"{fn.id}() materializes {reason} in hash order",
                        )


class _SetSymbols:
    """Best-effort, module-wide table of set-typed names and attributes.

    Over-approximates on purpose (any ``x.foo`` where some ``self.foo``
    is a set counts): in the hot directories a false positive costs one
    ``sorted()`` or one justified suppression, a false negative costs a
    nondeterministic benchmark.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attrs: set[str] = set()

    # ------------------------------------------------------------------
    @classmethod
    def collect(cls, tree: ast.AST) -> "_SetSymbols":
        table = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if _is_set_expr(node.value):
                    for tgt in node.targets:
                        table._note_target(tgt)
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(node.value)
                ):
                    table._note_target(node.target)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if arg.annotation is not None and _is_set_annotation(
                        arg.annotation
                    ):
                        table.names.add(arg.arg)
        return table

    def _note_target(self, tgt: ast.AST) -> None:
        if isinstance(tgt, ast.Name):
            self.names.add(tgt.id)
        elif isinstance(tgt, ast.Attribute):
            self.attrs.add(tgt.attr)

    # ------------------------------------------------------------------
    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            return isinstance(fn, ast.Name) and fn.id in _SET_CONSTRUCTORS
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False

    def set_reason(self, node: ast.AST) -> Optional[str]:
        """Human description of why ``node`` is a set, or None."""
        if not self.is_set(node):
            return None
        if isinstance(node, ast.Name):
            return f"set {node.id!r}"
        if isinstance(node, ast.Attribute):
            return f"set attribute .{node.attr}"
        if isinstance(node, ast.Call):
            return "a set/frozenset constructor"
        if isinstance(node, ast.BinOp):
            return "a set-algebra expression"
        return "a set literal"


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        return isinstance(fn, ast.Name) and fn.id in _SET_CONSTRUCTORS
    return False


def _is_set_annotation(node: ast.AST) -> bool:
    base: ast.AST = node
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Attribute):  # typing.Set[...]
        return base.attr in _SET_ANNOTATIONS
    if isinstance(base, ast.Name):
        return base.id in _SET_ANNOTATIONS
    if isinstance(base, ast.Constant) and isinstance(base.value, str):
        # string annotation: "set[int]" — cheap textual check
        head = base.value.split("[", 1)[0].strip()
        return head in _SET_ANNOTATIONS
    return False
