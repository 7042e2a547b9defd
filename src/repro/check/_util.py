"""Shared AST + suppression helpers for the simcheck passes.

This module is the single home of the cross-cutting conventions every
pass (AST lints, effect analysis, layer checks) must agree on:

* the ``# simcheck: ignore[...] -- reason`` suppression syntax and its
  parser (one regex, one :class:`Suppression` record; the project graph
  runs it once per module and every pass reads the result);
* the set of directories/files no pass ever scans (``__pycache__``,
  VCS and tool caches, build output, generated files);
* the hot-path predicate used by the path-scoped rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

__all__ = [
    "dotted_name",
    "ScopeNode",
    "is_hot_path",
    "Suppression",
    "SUPPRESSION_CODE",
    "parse_suppressions",
    "is_excluded_path",
    "is_generated_source",
    "EXCLUDED_DIR_NAMES",
]

#: function-like scope nodes (each gets its own symbol table in rules)
ScopeNode = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: pseudo-rule reported for a suppression comment without a
#: justification (or naming a rule code that does not exist)
SUPPRESSION_CODE = "SIM000"

#: directories no checker pass ever descends into
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*simcheck:\s*ignore\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: generated-file markers honoured on the first two lines of a file
_GENERATED_MARKERS = ("@generated", "# generated by", "# auto-generated")


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# simcheck: ignore[...]`` comment."""

    line: int
    codes: frozenset[str]
    reason: Optional[str]


def parse_suppressions(lines: Sequence[str]) -> Iterator[Suppression]:
    """Yield every suppression comment in ``lines`` (1-based line numbers)."""
    for lineno, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = frozenset(
            c.strip() for c in m.group("codes").split(",") if c.strip()
        )
        reason = m.group("reason")
        yield Suppression(line=lineno, codes=codes, reason=reason)


def is_excluded_path(path_parts: Sequence[str]) -> bool:
    """True when any component of a path is a never-scanned directory."""
    return any(
        part in EXCLUDED_DIR_NAMES or part.endswith(".egg-info")
        for part in path_parts
    )


def is_generated_source(text: str) -> bool:
    """True for machine-written files (checked on the first two lines)."""
    head = text.split("\n", 2)[:2]
    return any(
        marker in line.lower() for line in head for marker in _GENERATED_MARKERS
    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_hot_path(display_path: str) -> bool:
    """True for the determinism-critical protocol directories.

    ``core/`` and ``sim/`` execute inside the event loop; ``verify/``
    must report identical verdicts across runs to be a usable oracle;
    ``perf/`` drives the runs the registry-overhead gate times, so an
    accidental O(n^2) there skews the ratio the gate reads;
    ``obs/`` records from inside the same event loop and its exporters
    promise byte-identical same-seed dumps.  ``repro/soak.py`` (the
    PR-8 chaos-soak driver) replays whole protocol matrices under one
    seed and must be exactly as order-stable as the kernel it drives.
    """
    norm = display_path.replace("\\", "/")
    if norm.endswith("repro/soak.py") or norm == "soak.py":
        return True
    return any(
        f"repro/{d}/" in norm or norm.startswith(f"{d}/")
        for d in ("core", "sim", "verify", "perf", "obs")
    )
