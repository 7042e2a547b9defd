"""The machine-readable JSON report of ``repro check``.

One exporter consumes the findings of every pass — the front end's
SIM000/SIM999, the AST lints (SIM003, SIM004, SIM006, SIM007), the
whole-program effect analysis (EFF...), and the layer-contract check (LAY...) — so CI
uploads a single artifact and diff tools see one stable schema.

The report is the project's own schema (versioned, see
:data:`JSON_SCHEMA_VERSION`) and carries the full effect table — the
machine-checked certificate that the protocol cores are
substrate-independent.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional, Sequence

from .lint import Finding
from .rules import ALL_RULES

__all__ = [
    "ANALYZER_RULES",
    "JSON_SCHEMA_VERSION",
    "findings_to_json",
    "rule_metadata",
]

JSON_SCHEMA_VERSION = 1

#: rules reported by the whole-program analyzers (code -> name,
#: rationale, fix-it hint); :func:`rule_metadata` adds them to one
#: catalog for ``--explain`` and the suppression-code validator
ANALYZER_RULES: dict[str, tuple[str, str, str]] = {
    "EFF001": (
        "forbidden-effect",
        "a function transitively reaches an effect that an "
        "[[effects.forbid]] rule of layers.toml bans in its tree (e.g. "
        "any effect in repro/core, the wall clock anywhere in repro)",
        "route the effect through an injected port (clock/RNG/transport "
        "argument), or declare the crossing in layers.toml",
    ),
    "EFF002": (
        "effect-baseline-drift",
        "a function gained an effect that is not in the committed "
        "EFFECTS_BASELINE.json — new effects must be reviewed, not "
        "slipped in",
        "if intentional, regenerate the baseline with "
        "`repro check --effects --write-baseline` and commit the diff",
    ),
    "LAY001": (
        "layer-violation",
        "an import crosses the layer contract (layers.toml) without a "
        "declared port — e.g. repro/core reaching into repro/sim",
        "invert the dependency (inject the object), or declare an "
        "explicit [[ports]] entry with a justification",
    ),
    "LAY002": (
        "annotation-port-runtime-use",
        "an import declared annotation-only in layers.toml is used at "
        "runtime — the sanctioned crossing was typing-only",
        "move the import under `if TYPE_CHECKING:` and keep runtime "
        "access behind the injected port object",
    ),
    "LAY003": (
        "unknown-module",
        "the layer contract does not assign this module to any layer",
        "add the module (or a parent package prefix) to a [layers.*] "
        "modules list in layers.toml",
    ),
}


def rule_metadata() -> dict[str, tuple[str, str, str]]:
    """code -> (name, rationale, hint) for every reportable rule."""
    meta = {
        cls.code: (cls.name, cls.rationale, cls.hint) for cls in ALL_RULES
    }
    meta["SIM000"] = (
        "invalid-suppression",
        "a simcheck: ignore[...] comment without a ' -- reason' or "
        "naming an unknown rule code",
        "append ' -- <why this is safe>' and use codes from --list-rules",
    )
    meta["SIM999"] = (
        "syntax-error",
        "the file does not parse; nothing else can be checked",
        "fix the syntax error",
    )
    meta.update(ANALYZER_RULES)
    return meta


def findings_to_json(
    findings: Sequence[Finding],
    *,
    effects: Optional[Mapping[str, Sequence[str]]] = None,
    certificate: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """The project JSON report: findings + optional effect certificate."""
    doc: dict[str, object] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "repro.check",
        "findings": [
            {
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "hint": f.hint,
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "by_code": _count_by_code(findings),
        },
    }
    if effects is not None:
        doc["effects"] = {
            qual: sorted(effs) for qual, effs in sorted(effects.items())
        }
    if certificate is not None:
        doc["certificate"] = dict(certificate)
    if meta is not None:
        doc["meta"] = dict(meta)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _count_by_code(findings: Sequence[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    return dict(sorted(counts.items()))
