"""``python -m repro.check`` — the determinism & metadata sanitizer CLI.

The tree is ``--src-root`` (default ``src/``) plus the contract's
package, parsed once into a project graph that every static pass reads;
a module that does not parse is a SIM999 finding and a suppression
without a reason a SIM000 finding, whichever passes run.  Sub-behaviours
(composable in one invocation):

* **lint** (default): run the SIM003, SIM004, SIM006 and SIM007 AST
  rules, print ``path:line:col: CODE message`` per finding, exit
  non-zero on any finding;
* **--effects**: whole-program effect inference (EFF001, EFF002) — the
  contract's ``[[effects.forbid]]`` rules (``repro/core`` and
  ``repro/verify`` substrate-pure; no wall clock or unseeded RNG
  anywhere in ``repro`` outside the ``[[effects.allow]]`` table),
  diffed against the committed ``EFFECTS_BASELINE.json``;
* **--layers**: layer-contract enforcement (LAY001..LAY003) against
  ``layers.toml``;
* **--mypy/--no-mypy**: strict-typing gate over ``core/``/``sim/``/
  ``check/`` (skipped with a notice when mypy is not installed);
* **--double-run**: determinism smoke — run each protocol twice under
  the same seed (optionally through a chaos plan with one crash and
  recovery) and fail on the first
  diverging trace event, printing its causal chain.

``--format json`` switches stdout to the machine-readable report
(findings from every pass that ran, plus the effect table when
``--effects`` ran); ``--report PATH`` writes that document to a file
while keeping human output on stdout.

Examples::

    python -m repro.check
    python -m repro.check --explain EFF001
    python -m repro.check --effects --layers
    python -m repro.check --effects --write-baseline
    python -m repro.check --effects --layers --format json --no-lint
    python -m repro.check --double-run --chaos --protocols full-track,optp

Exit codes: 0 clean, 1 findings/divergence, 2 usage or contract error.
"""

from __future__ import annotations

import argparse
import sys
import tomllib
from pathlib import Path
from typing import Optional, Sequence

from .callgraph import ProjectGraph
from .contract import Contract, ContractError
from .lint import Finding, run_lints
from .rules import all_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="determinism & causal-metadata sanitizer "
                    "(AST lints, effect/layer analyzers, typing gate, "
                    "double-run diff)",
    )
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--explain", metavar="CODE",
                    help="print one rule's rationale and hint, then exit")
    ap.add_argument("--select", metavar="CODES",
                    help="comma-separated rule codes to run (default: all)")
    ap.add_argument("--no-lint", action="store_true",
                    help="skip the AST lint pass")
    ap.add_argument("--effects", action="store_true",
                    help="run the whole-program effect analysis "
                         "(EFF001, EFF002)")
    ap.add_argument("--layers", action="store_true",
                    help="check the layer contract (LAY001..LAY003)")
    ap.add_argument("--contract", type=Path, default=None, metavar="TOML",
                    help="layer contract path (default: layers.toml, or "
                         "[tool.repro.check] contract in pyproject.toml)")
    ap.add_argument("--baseline", type=Path, default=None, metavar="JSON",
                    help="effect baseline path (default: "
                         "EFFECTS_BASELINE.json)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="regenerate the effect baseline instead of "
                         "diffing against it (implies --effects)")
    ap.add_argument("--src-root", type=Path, default=None, metavar="DIR",
                    help="source root holding the contract's package "
                         "(default: src/)")
    ap.add_argument("--format", choices=("human", "json"),
                    default="human",
                    help="stdout format for findings (default: human)")
    ap.add_argument("--report", type=Path, default=None, metavar="PATH",
                    help="also write the JSON report to this file")
    ap.add_argument("--mypy", dest="mypy", action="store_true", default=None,
                    help="force the mypy gate (fail if mypy is missing)")
    ap.add_argument("--no-mypy", dest="mypy", action="store_false",
                    help="skip the mypy gate")
    ap.add_argument("--double-run", action="store_true",
                    help="run the double-run divergence detector")
    ap.add_argument("--protocols", metavar="NAMES", default=None,
                    help="protocols for --double-run (comma-separated; "
                         "default: every registered protocol)")
    ap.add_argument("--chaos", action="store_true",
                    help="route the double run through a seeded chaos plan "
                         "(drops, duplicates, spikes and one crash)")
    ap.add_argument("--n-sites", type=int, default=5,
                    help="sites for the double-run smoke (default 5)")
    ap.add_argument("--ops", type=int, default=30,
                    help="operations per process for --double-run")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload/latency seed for --double-run")
    return ap


def _project_defaults() -> dict[str, str]:
    """``[tool.repro.check]`` from pyproject.toml, when present."""
    pyproject = Path("pyproject.toml")
    if not pyproject.is_file():
        return {}
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    section = data.get("tool", {}).get("repro", {}).get("check", {})
    return {k: str(v) for k, v in section.items()}


def _print_rule_catalog() -> None:
    from .reportfmt import rule_metadata

    print("simcheck rules:")
    for code, (name, rationale, _) in sorted(rule_metadata().items()):
        print(f"  {code}  {name:26s} {rationale}")


def _explain(code: str) -> int:
    from .reportfmt import rule_metadata

    meta = rule_metadata().get(code)
    if meta is None:
        print(f"unknown rule code {code!r}; see --list-rules",
              file=sys.stderr)
        return 2
    name, rationale, hint = meta
    print(f"{code} {name}")
    print(f"  why : {rationale}")
    print(f"  fix : {hint}")
    print("  mute: append  # simcheck: ignore[{}] -- <justification>"
          .format(code))
    return 0


def _run_lint(
    graph: ProjectGraph, select: Optional[str], *, human: bool
) -> list[Finding]:
    rules = all_rules()
    if select:
        wanted = {c.strip() for c in select.split(",") if c.strip()}
        rules = [r for r in rules if r.code in wanted]
    findings = run_lints(graph, rules)
    if human:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"simcheck lint: {n} finding{'s' if n != 1 else ''} "
              f"in {len(graph.modules)} modules")
    return findings


def _run_mypy(*, force: bool) -> int:
    from .typing_gate import run_mypy

    result = run_mypy(Path.cwd())
    if result.status == "skipped":
        print(result.output)
        return 1 if force else 0
    print(result.output.rstrip() or f"mypy: {result.status}")
    return 0 if result.ok else 1


def _run_double(args: argparse.Namespace) -> int:
    from ..core import protocol_names
    from ..experiments.runner import SimulationConfig
    from ..sim.faults import CrashEvent, FaultPlan
    from .sanitizer import double_run

    plan = None
    if args.chaos:
        # one crash and recovery brings in the whole crash stack:
        # checkpoints, heartbeats, WAL replay and catch-up
        crashes = ((CrashEvent(args.n_sites // 2, 600.0, 1500.0),)
                   if args.n_sites >= 2 else ())
        plan = FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02,
                                 spike_rate=0.02, crashes=crashes)
    protocols = (protocol_names() if args.protocols is None else
                 [p.strip() for p in args.protocols.split(",") if p.strip()])
    failures = 0
    for proto in protocols:
        config = SimulationConfig(
            protocol=proto,
            n_sites=args.n_sites,
            n_vars=40,
            ops_per_process=args.ops,
            seed=args.seed,
            fault_plan=plan,
            fault_seed=args.seed,
        )
        report = double_run(config)
        print(report.format())
        if not report.identical:
            failures += 1
    if failures:
        print(f"double-run: {failures} protocol(s) diverged")
        return 1
    print("double-run: all protocols bit-deterministic")
    return 0


def _run_analyzers(
    args: argparse.Namespace,
    defaults: dict[str, str],
    graph: ProjectGraph,
    contract: Contract,
    contract_path: Path,
    *,
    human: bool,
) -> tuple[list[Finding], Optional[dict[str, list[str]]], dict[str, object]]:
    """Effect/layer passes: (findings, effect table, certificate)."""
    from .effects import (
        analyze_effects,
        diff_against_baseline,
        load_baseline,
        render_baseline,
    )
    from .layers import check_layers

    findings: list[Finding] = []
    effect_table: Optional[dict[str, list[str]]] = None
    certificate: dict[str, object] = {}
    if args.layers:
        layer_findings = check_layers(graph, contract)
        findings.extend(layer_findings)
        if human:
            for f in layer_findings:
                print(f.format())
            print(f"layer check: {len(layer_findings)} finding(s), "
                  f"{len(graph.modules)} modules against {contract_path}")
    if args.effects or args.write_baseline:
        report = analyze_effects(graph, contract)
        effect_findings = report.findings(contract)
        findings.extend(effect_findings)
        effect_table = {
            q: sorted(e) for q, e in sorted(report.nonempty().items())
        }
        baseline_path = args.baseline or Path(
            defaults.get("baseline", "EFFECTS_BASELINE.json")
        )
        if args.write_baseline:
            baseline_path.write_text(
                render_baseline(report, contract.package), encoding="utf-8"
            )
            if human:
                print(f"effect baseline written: {baseline_path} "
                      f"({len(effect_table)} effectful functions)")
        else:
            baseline = load_baseline(baseline_path)
            if baseline is None:
                if human:
                    print(f"note: no effect baseline at {baseline_path} "
                          "(run --effects --write-baseline to create it)")
            else:
                drift = diff_against_baseline(report, baseline)
                findings.extend(drift)
                if human:
                    for f in drift:
                        print(f.format())
        # a module that did not parse was never analyzed
        certified = not any(
            f.code in ("EFF001", "SIM999")
            for f in effect_findings + graph.findings
        )
        certificate = {
            "forbid": [
                {"trees": list(rule.trees), "effects": list(rule.effects)}
                for rule in contract.effect_forbids
            ],
            "certified": certified,
            "functions_analyzed": len(report.effects),
            "functions_with_effects": len(effect_table),
        }
        if human:
            for f in effect_findings:
                print(f.format())
            verdict = "CERTIFIED" if certified else "NOT certified"
            print(f"effect check: {len(effect_findings)} finding(s) under "
                  f"{len(contract.effect_forbids)} forbid rule(s): {verdict}")
    return findings, effect_table, certificate


def _emit_structured(
    args: argparse.Namespace,
    findings: list[Finding],
    effect_table: Optional[dict[str, list[str]]],
    certificate: dict[str, object],
) -> None:
    from .reportfmt import findings_to_json

    doc = findings_to_json(
        sorted(findings, key=Finding.sort_key),
        effects=effect_table,
        certificate=certificate or None,
    )
    if args.format == "json":
        sys.stdout.write(doc)
    if args.report is not None:
        args.report.write_text(doc, encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rule_catalog()
        return 0
    if args.explain:
        return _explain(args.explain)
    defaults = _project_defaults()
    human = args.format == "human"
    analyzers = args.effects or args.layers or args.write_baseline
    exit_code = 0
    findings: list[Finding] = []
    effect_table: Optional[dict[str, list[str]]] = None
    certificate: dict[str, object] = {}
    if not args.no_lint or analyzers:
        contract_path = args.contract or Path(
            defaults.get("contract", "layers.toml")
        )
        try:
            contract = Contract.load(contract_path)
        except ContractError as exc:
            print(f"contract error: {exc}", file=sys.stderr)
            return 2
        graph = ProjectGraph.build(
            args.src_root or Path(defaults.get("src_root", "src")),
            contract.package,
        )
        findings.extend(graph.findings)
        if human:
            for f in graph.findings:
                print(f.format())
        if not args.no_lint:
            findings.extend(_run_lint(graph, args.select, human=human))
        if analyzers:
            analyzer_findings, effect_table, certificate = _run_analyzers(
                args, defaults, graph, contract, contract_path, human=human
            )
            findings.extend(analyzer_findings)
    if findings:
        exit_code = 1
    if not human or args.report is not None:
        _emit_structured(args, findings, effect_table, certificate)
    # mypy prints free-form output, so it is human-mode only unless
    # explicitly forced
    if (human and args.mypy is not False and not args.no_lint) or args.mypy:
        exit_code |= _run_mypy(force=bool(args.mypy))
    if args.double_run:
        exit_code |= _run_double(args)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
