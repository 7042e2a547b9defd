"""simcheck lint pass: the finding record, the rule base, and the runner.

The reproduction's claims rest on the simulator being bit-deterministic
and on causal metadata (``Write`` matrices, KS logs, Dests lists) never
being silently shared or reordered.  The lint pass enforces the
project conventions that keep runs reproducible with five AST rules
(SIM003..SIM007, see :mod:`repro.check.rules`), run as visitors over
the modules of :class:`repro.check.callgraph.ProjectGraph` — the one
parse every pass of ``repro.check`` shares.  Wall-clock reads and
unseeded randomness are not lints: the ``[[effects.forbid]]`` rules of
``layers.toml`` ban them through the effect analyzer.

Suppression syntax
------------------
A finding of any pass is suppressed by a ``simcheck`` comment on the
flagged line or on the line directly above it::

    for site in pending:  # simcheck: ignore[SIM003] -- result is a set

The justification after ``--`` is **mandatory** in this repository: a
suppression without one still silences its target rule but surfaces as a
``SIM000`` finding of its own, so an unjustified escape hatch can never
make ``python -m repro.check`` exit 0.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .callgraph import ModuleInfo, ProjectGraph

__all__ = ["Finding", "Rule", "run_lints"]


@dataclass(frozen=True)
class Finding:
    """One violation: rule id, location, message, and fix-it hint."""

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


class Rule:
    """Base class for simcheck rules.

    Subclasses set ``code``/``name``/``hint`` and implement
    :meth:`check`.  :meth:`applies_to` scopes the rule by path (e.g.
    SIM003 only patrols the hot protocol directories).
    """

    code: str = "SIM999"
    name: str = "abstract"
    #: one-line rationale shown by ``--explain``
    rationale: str = ""
    #: default fix-it hint (rules may emit finding-specific ones)
    hint: str = ""

    def applies_to(self, display_path: str) -> bool:
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        message: str,
        *,
        hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            code=self.code,
            path=mod.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
        )


def run_lints(graph: ProjectGraph, rules: Sequence[Rule]) -> list[Finding]:
    """Every unsuppressed finding of ``rules`` over the graph's modules,
    sorted by location."""
    findings = [
        f
        for mod in graph.modules.values()
        for rule in rules
        if rule.applies_to(mod.display_path)
        for f in rule.check(mod)
        if not mod.suppressed(f.code, f.line)
    ]
    return sorted(findings, key=Finding.sort_key)
