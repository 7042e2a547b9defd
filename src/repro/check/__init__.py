"""repro.check — determinism & causal-metadata sanitizer.

Three layers (see ``docs/static_analysis.md``):

1. **AST lints** (:mod:`repro.check.lint`, :mod:`repro.check.rules`):
   SIM001..SIM007, project-specific determinism rules with fix-it hints
   and a mandatory-justification suppression syntax;
2. **runtime sanitizers** (:mod:`repro.check.sanitizer`): the
   frozen-message network wrapper and the double-run divergence
   detector;
3. **strict typing** (:mod:`repro.check.typing_gate`): mypy over the
   hot packages, configured in ``pyproject.toml``.

All three are wired into ``python -m repro.check``.
"""

# .rules must come first: repro.check.lint imports the shared
# suppression parser from .rules._util, so the cycle only resolves when
# the rules package (whose __init__ pulls in .lint) is entered first.
from .rules import ALL_RULES, all_rules, rule_by_code
from .lint import Finding, Rule, SourceFile, lint_file, lint_paths
from .sanitizer import (
    DivergenceReport,
    MessageMutationError,
    SanitizedNetwork,
    diff_traces,
    double_run,
    fingerprint,
)

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "lint_file",
    "lint_paths",
    "ALL_RULES",
    "all_rules",
    "rule_by_code",
    "DivergenceReport",
    "MessageMutationError",
    "SanitizedNetwork",
    "diff_traces",
    "double_run",
    "fingerprint",
]
