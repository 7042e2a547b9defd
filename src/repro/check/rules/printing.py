"""SIM008: bare ``print`` in library code.

Library modules report through the collector/tracer; a stray ``print``
is almost always leftover debugging, corrupts machine-readable CLI
output, and (worse) tempts f-strings that format simulated state and
hide ordering assumptions.  User-facing surfaces (the CLIs) are
exempt by path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import Finding, Rule, SourceFile

__all__ = ["NoPrintRule"]

#: user-facing surfaces that are *supposed* to print (kept in sync with
#: the ruff T20 per-file-ignores in pyproject.toml)
_ALLOWED_SUFFIXES = (
    "repro/cli.py",
    "repro/check/cli.py",
    "repro/perf/cli.py",
)


class NoPrintRule(Rule):
    code = "SIM008"
    name = "no-print"
    rationale = (
        "library code reports through the collector/tracer; bare print "
        "is leftover debugging and corrupts CLI output"
    )
    hint = "route output through the tracer/collector, or move it to the CLI"

    def applies_to(self, display_path: str) -> bool:
        norm = display_path.replace("\\", "/")
        if any(norm.endswith(sfx) for sfx in _ALLOWED_SUFFIXES):
            return False
        # non-library trees print freely
        for part in ("examples/", "benchmarks/", "tests/", "docs/"):
            if part in norm or norm.startswith(part.rstrip("/")):
                return False
        return True

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(src, node, "bare print() in library code")
