"""repro.check — determinism & causal-metadata sanitizer.

Three layers (see ``docs/static_analysis.md``):

1. **static analysis** over one parse of the tree
   (:class:`repro.check.callgraph.ProjectGraph`): the AST lints
   SIM003, SIM004, SIM006 and SIM007 (:mod:`repro.check.lint`,
   :mod:`repro.check.rules`),
   the effect analyzer whose ``[[effects.forbid]]`` rules ban the wall
   clock and unseeded randomness (:mod:`repro.check.effects`), and the
   layer contract (:mod:`repro.check.layers`) — one suppression syntax,
   with a mandatory justification, for all three;
2. **runtime determinism** (:mod:`repro.check.sanitizer`): the
   double-run divergence detector;
3. **strict typing** (:mod:`repro.check.typing_gate`): mypy over the
   hot packages, configured in ``pyproject.toml``.

All three are wired into ``python -m repro.check``.
"""

from .lint import Finding, Rule, run_lints
from .rules import ALL_RULES, all_rules, rule_by_code
from .sanitizer import DivergenceReport, diff_traces, double_run

__all__ = [
    "Finding",
    "Rule",
    "run_lints",
    "ALL_RULES",
    "all_rules",
    "rule_by_code",
    "DivergenceReport",
    "diff_traces",
    "double_run",
]
