"""SIM006: exact float equality on simulated timestamps.

Simulated times are floats built from sums of sampled latencies plus
FIFO epsilons; ``a == b`` on two of them encodes an accidental property
of one particular accumulation order.  Compare with ``<=``/``>=``
against explicit bounds, or test ``abs(a - b) < eps`` when coincidence
is genuinely meant.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..callgraph import ModuleInfo
from ..lint import Finding, Rule

__all__ = ["FloatTimestampEqualityRule"]

#: identifier shapes that denote simulated times in this codebase
_TIMEY = re.compile(
    r"(^|_)(time|ts|now|arrived|issued|deadline|delivery|departure|"
    r"downtime|horizon|at)(_ms|_s)?$|_ms$|_time$"
)


class FloatTimestampEqualityRule(Rule):
    code = "SIM006"
    name = "float-timestamp-equality"
    rationale = (
        "== on accumulated float timestamps asserts one particular "
        "rounding history; runs differ in the last ulp, results flip"
    )
    hint = (
        "compare with <=/>= bounds, or abs(a - b) < eps when testing "
        "coincidence"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_timey(left) and _is_numeric_ish(right):
                    yield self._flag(mod, node, left)
                elif _is_timey(right) and _is_numeric_ish(left):
                    yield self._flag(mod, node, right)

    def _flag(self, mod: ModuleInfo, node: ast.Compare,
              timey: ast.AST) -> Finding:
        label = _ident(timey) or "timestamp"
        return self.finding(
            mod, node, f"exact float equality on simulated time {label!r}"
        )


def _ident(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_timey(node: ast.AST) -> bool:
    name = _ident(node)
    return bool(name) and bool(_TIMEY.search(name))


def _is_numeric_ish(node: ast.AST) -> bool:
    """The other operand looks like a number (not None / str / bool)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, (ast.Name, ast.Attribute)):
        # comparing two identifiers: only flag when the peer is timey or
        # numeric-looking; identifiers compare as "numeric-ish" here and
        # the timey test on the flagged side does the narrowing
        return True
    if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call, ast.Subscript)):
        return True
    return False
