"""simcheck lint framework: rules, findings, suppressions, file walking.

The reproduction's claims rest on the simulator being bit-deterministic
and on causal metadata (``Write`` matrices, KS logs, Dests lists) never
being silently shared or reordered.  ``repro.check`` mechanically
enforces the project conventions that keep runs reproducible with ~8
AST rules (SIM001..SIM008, see :mod:`repro.check.rules`).

Suppression syntax
------------------
A finding is suppressed by a ``simcheck`` comment on the flagged line or
on the line directly above it::

    t0 = time.perf_counter()  # simcheck: ignore[SIM001] -- wall-clock report only

The justification after ``--`` is **mandatory** in this repository: a
suppression without one still silences its target rule but surfaces as a
``SIM000`` finding of its own, so an unjustified escape hatch can never
make ``python -m repro.check`` exit 0.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .rules._util import (
    SUPPRESSION_CODE,
    Suppression,
    is_excluded_path,
    is_generated_source,
    parse_suppressions,
)

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "Suppression",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "SUPPRESSION_CODE",
]


@dataclass(frozen=True)
class Finding:
    """One lint violation: rule id, location, message, and fix-it hint."""

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


@dataclass
class SourceFile:
    """A parsed source file handed to every rule (parse once, lint many)."""

    path: Path
    #: path as reported in findings — relative to the scan root when possible
    display_path: str
    text: str
    tree: ast.AST
    lines: list[str] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, *, root: Optional[Path] = None) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        display = str(path)
        if root is not None:
            try:
                display = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                display = str(path)
        src = cls(
            path=path,
            display_path=display,
            text=text,
            tree=ast.parse(text, filename=str(path)),
            lines=text.splitlines(),
        )
        src.suppressions = list(parse_suppressions(src.lines))
        return src

    # ------------------------------------------------------------------
    def suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is silenced at ``line`` (same or previous line)."""
        for sup in self.suppressions:
            if sup.line in (line, line - 1) and code in sup.codes:
                return True
        return False

    def invalid_suppressions(
        self, known_codes: Optional[frozenset[str]] = None
    ) -> Iterator[Finding]:
        """SIM000 findings: missing justification or unknown rule codes.

        ``known_codes`` defaults to every registered rule code; a
        suppression naming a code outside that set is dead weight that
        silently stops guarding anything when rules are renamed, so it
        fails the check exactly like a missing justification.
        """
        if known_codes is None:
            known_codes = _registered_codes()
        for sup in self.suppressions:
            if sup.reason is None:
                yield Finding(
                    code=SUPPRESSION_CODE,
                    path=self.display_path,
                    line=sup.line,
                    col=0,
                    message=(
                        "suppression without a justification: "
                        f"ignore[{', '.join(sorted(sup.codes))}]"
                    ),
                    hint=(
                        "append ' -- <why this is safe>' to the simcheck "
                        "comment; unjustified suppressions fail the check"
                    ),
                )
                continue
            unknown = sorted(sup.codes - known_codes)
            if unknown:
                yield Finding(
                    code=SUPPRESSION_CODE,
                    path=self.display_path,
                    line=sup.line,
                    col=0,
                    message=(
                        "suppression names unknown rule "
                        f"code(s): {', '.join(unknown)}"
                    ),
                    hint="drop the stale code or fix the typo; see --list-rules",
                )


def _registered_codes() -> frozenset[str]:
    """Every code a suppression may legitimately name."""
    # deferred import: repro.check.rules imports this module for Rule
    from .rules import ALL_RULES
    from .reportfmt import ANALYZER_RULES

    return frozenset(
        {cls.code for cls in ALL_RULES}
        | set(ANALYZER_RULES)
        | {SUPPRESSION_CODE, "SIM999"}
    )


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

    def check(self, src: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        src: SourceFile,
        node: ast.AST,
        message: str,
        *,
        hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            code=self.code,
            path=src.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
        )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted for stable output.

    ``__pycache__``, VCS/tool caches, build output, and ``*.egg-info``
    trees are excluded everywhere — no pass ever lints generated or
    cached sources (see :data:`repro.check.rules._util.EXCLUDED_DIR_NAMES`).
    """
    seen: list[Path] = []
    for p in paths:
        if p.is_dir():
            seen.extend(
                f for f in sorted(p.rglob("*.py"))
                if not is_excluded_path(f.parts)
            )
        elif p.suffix == ".py" and not is_excluded_path(p.parts):
            seen.append(p)
    emitted = set()
    for p in seen:
        key = str(p.resolve())
        if key not in emitted:
            emitted.add(key)
            yield p


def lint_file(
    src: SourceFile, rules: Sequence[Rule]
) -> list[Finding]:
    """Run every applicable rule over one parsed file."""
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(src.display_path):
            continue
        for f in rule.check(src):
            if not src.suppressed(f.code, f.line):
                findings.append(f)
    findings.extend(src.invalid_suppressions())
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    *,
    root: Optional[Path] = None,
) -> list[Finding]:
    """Lint every python file under ``paths``; findings sorted by location."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            src = SourceFile.load(path, root=root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    code="SIM999",
                    path=str(path),
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        if is_generated_source(src.text):
            continue
        findings.extend(lint_file(src, rules))
    findings.sort(key=Finding.sort_key)
    return findings
