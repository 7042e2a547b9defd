"""simcheck rule registry: SIM003, SIM004, SIM006 and SIM007.

==========  ======================  =====================================
code        name                    guards against
==========  ======================  =====================================
``SIM003``  set-iteration           hash-order iteration on hot paths
``SIM004``  mutable-default         call-to-call shared default containers
``SIM006``  float-ts-equality       exact == on accumulated float times
``SIM007``  raw-heapq               priority queues without (time, seq)
==========  ======================  =====================================

``SIM000`` is the framework's own pseudo-rule: a suppression comment
without a ``-- justification``.  Wall-clock reads and unseeded
randomness are ``[[effects.forbid]]`` rules of ``layers.toml``,
enforced by the effect analyzer.  Debug prints in library code are
ruff's ``T20`` gate (``[tool.ruff.lint]`` in ``pyproject.toml``).
"""

from __future__ import annotations

from ..lint import Rule
from .defaults import MutableDefaultRule
from .floateq import FloatTimestampEqualityRule
from .heap import RawHeapqRule
from .iteration import SetIterationRule

__all__ = ["ALL_RULES", "all_rules", "rule_by_code"]

ALL_RULES: tuple[type[Rule], ...] = (
    SetIterationRule,
    MutableDefaultRule,
    FloatTimestampEqualityRule,
    RawHeapqRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in SIM-code order."""
    return [cls() for cls in ALL_RULES]


def rule_by_code(code: str) -> Rule:
    for cls in ALL_RULES:
        if cls.code == code:
            return cls()
    raise KeyError(f"unknown rule {code!r}; known: "
                   f"{[c.code for c in ALL_RULES]}")
