"""Tests for the simcheck AST lint layer (SIM003..SIM007 + SIM000).

Each rule gets a fixture file with a known violation (written under a
``repro/...`` relative path so the path-scoped rules engage) plus a
negative fixture showing the sanctioned idiom passes.  Suppression
handling — same-line, line-above, and the mandatory justification —
is exercised against the project graph that reads it for every pass,
and the final test asserts the live tree itself lints clean, which is
the repository's CI gate.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.check import Finding, rule_by_code, run_lints
from repro.check._util import SUPPRESSION_CODE
from repro.check.callgraph import ProjectGraph
from repro.check.contract import Contract
from repro.check.effects import analyze_effects
from repro.check.rules import ALL_RULES, all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, rel, source, codes=None):
    """Write ``source`` at ``tmp_path/rel``, parse its package and lint it.

    ``codes`` restricts the rule set (default: every registered rule).
    Returns the graph's own findings (SIM000, SIM999) plus the lints'.
    """
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    graph = ProjectGraph.build(tmp_path, rel.split("/")[0])
    rules = all_rules() if codes is None else [rule_by_code(c) for c in codes]
    return sorted(graph.findings + run_lints(graph, rules),
                  key=Finding.sort_key)


def codes_of(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# wall clock: SIM001's exemptions are now the live contract's scope/allows
# ----------------------------------------------------------------------
class TestWallClock:
    def flagged(self, tmp_path, rel):
        # EFF001 paths with a clock read at ``rel`` and at repro/sim/fx.py (positive control)
        for r in ("repro/__init__.py", "repro/sim/__init__.py", rel, "repro/sim/fx.py"):
            (tmp_path / r).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / r).write_text("" if r.endswith("__init__.py") else
                                      "import time\ndef f() -> float:\n"
                                      "    return time.perf_counter()\n")
        contract = Contract.load(REPO_ROOT / "layers.toml")
        report = analyze_effects(ProjectGraph.build(tmp_path, "repro"), contract)
        return [Path(f.path).relative_to(tmp_path).as_posix()
                for f in report.findings(contract) if f.code == "EFF001"]

    def test_benchmarks_exempt(self, tmp_path):
        assert self.flagged(tmp_path, "benchmarks/fx.py") == ["repro/sim/fx.py"]

    def test_perf_harness_exempt(self, tmp_path):
        # repro/perf is the in-package benchmark harness (an allow entry)
        assert self.flagged(tmp_path, "repro/perf/fx.py") == ["repro/sim/fx.py"]


# ----------------------------------------------------------------------
# SIM003 set iteration (hot paths only)
# ----------------------------------------------------------------------
class TestSetIteration:
    SOURCE = """
        def f(items):
            pending = set(items)
            total = 0
            for x in pending:
                total += x
            return total
    """

    def test_for_over_set_flagged_in_core(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", self.SOURCE,
                            codes=["SIM003"])
        assert codes_of(findings) == ["SIM003"]
        assert "sorted" in findings[0].hint

    def test_rule_scoped_to_hot_paths(self, tmp_path):
        findings = run_lint(tmp_path, "repro/experiments/fx.py", self.SOURCE,
                            codes=["SIM003"])
        assert findings == []

    def test_sorted_wrapping_passes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/sim/fx.py", """
            def f(items):
                pending = set(items)
                total = 0
                for x in sorted(pending):
                    total += x
                return total
        """, codes=["SIM003"])
        assert findings == []

    def test_comprehension_over_set_attribute_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/sim/fx.py", """
            class C:
                def __init__(self):
                    self.down: set[int] = set()

                def f(self):
                    return [s + 1 for s in self.down]
        """, codes=["SIM003"])
        assert codes_of(findings) == ["SIM003"]


# ----------------------------------------------------------------------
# SIM004 mutable default
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_list_default_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(acc=[]):
                return acc
        """, codes=["SIM004"])
        assert codes_of(findings) == ["SIM004"]

    def test_dict_call_default_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(state=dict()):
                return state
        """, codes=["SIM004"])
        assert codes_of(findings) == ["SIM004"]

    def test_none_default_passes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(acc=None, k=3, name="x"):
                return acc, k, name
        """, codes=["SIM004"])
        assert findings == []


# ----------------------------------------------------------------------
# SIM005 mutate after send
# ----------------------------------------------------------------------
class TestMutateAfterSend:
    def test_mutator_call_after_send_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, msg):
                self.ctx.network.send(0, dst, msg)
                msg.dests.append(dst)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]
        assert "'msg'" in findings[0].message

    def test_inline_constructor_capture_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, entries):
                self._send(dst, SomeSM(log=entries))
                entries.append(1)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]

    def test_subscript_assignment_after_send_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, row):
                self._send(dst, row)
                row[0] = 1.0
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]

    def test_mutation_before_send_passes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, msg):
                msg.dests.append(dst)
                self.ctx.network.send(0, dst, msg)
        """, codes=["SIM005"])
        assert findings == []

    def test_unrelated_mutation_passes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, msg, scratch):
                self.ctx.network.send(0, dst, msg)
                scratch.append(dst)
        """, codes=["SIM005"])
        assert findings == []

    def test_log_pruning_mutators_flagged(self, tmp_path):
        # the OptTrackLog/TupleLog pruning API rewrites the log a
        # piggyback may alias; building the next write's views is one
        # of them (it strips the log it walks)
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, log):
                self._send(dst, SomeSM(log=log))
                log.piggyback_views(frozenset({dst}))
                log.purge()
                log.reset(0, 1)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005", "SIM005", "SIM005"]


class TestMutateAfterSendAliasing:
    """SIM005's dataflow half: mutations that reach the payload through
    an alias (assignment, tuple/dict display, comprehension, helper
    call) are flagged; copies break the alias and pass."""

    def test_alias_through_assignment_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                self._send(dst, Msg(deps=deps))
                alias = deps
                alias.append(dst)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]
        assert "aliases 'deps'" in findings[0].message

    def test_tuple_display_escape_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                pair = (deps, dst)
                self._send(dst, Msg(payload=pair))
                deps.append(dst)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]

    def test_comprehension_element_escape_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dsts, deps):
                msgs = [Msg(deps=deps) for d in dsts]
                self._send(dsts[0], msgs)
                deps.append(0)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]

    def test_helper_call_result_aliases_args(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                wrapped = wrap(deps)
                self._send(dst, wrapped)
                deps.append(dst)
        """, codes=["SIM005"])
        assert codes_of(findings) == ["SIM005"]

    def test_copy_breaks_the_alias(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                self._send(dst, Msg(deps=list(deps)))
                deps.append(dst)
        """, codes=["SIM005"])
        assert findings == []

    def test_sorted_and_deepcopy_break_the_alias(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import copy

            def f(self, dst, deps, log):
                self._send(dst, Msg(deps=sorted(deps)))
                self._send(dst, Msg(log=copy.deepcopy(log)))
                deps.append(dst)
                log.purge()
        """, codes=["SIM005"])
        assert findings == []

    def test_scalar_builtin_result_not_aliasing(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                self._send(dst, Msg(n=len(deps)))
                deps.append(dst)
        """, codes=["SIM005"])
        assert findings == []

    def test_rebinding_detaches_the_name(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps):
                self._send(dst, Msg(deps=deps))
                deps = []
                deps.append(dst)
        """, codes=["SIM005"])
        assert findings == []

    def test_comprehension_loop_var_not_an_alias(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self, dst, deps, items):
                view = [x for x in items]
                self._send(dst, Msg(deps=deps))
                view.append(dst)
        """, codes=["SIM005"])
        assert findings == []


# ----------------------------------------------------------------------
# SIM006 float timestamp equality
# ----------------------------------------------------------------------
class TestFloatTimestampEquality:
    def test_eq_on_timey_name_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(arrival_time, deadline):
                return arrival_time == deadline
        """, codes=["SIM006"])
        assert codes_of(findings) == ["SIM006"]

    def test_noteq_against_constant_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self):
                return self.delivery_ms != 0.0
        """, codes=["SIM006"])
        assert codes_of(findings) == ["SIM006"]

    def test_ordering_comparisons_pass(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(ts, deadline, eps):
                return ts <= deadline and abs(ts - deadline) < eps
        """, codes=["SIM006"])
        assert findings == []

    def test_non_timey_names_pass(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(count, total):
                return count == total
        """, codes=["SIM006"])
        assert findings == []


# ----------------------------------------------------------------------
# SIM007 raw heapq
# ----------------------------------------------------------------------
class TestRawHeapq:
    def test_heapq_call_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import heapq

            def f(h):
                heapq.heappush(h, 1)
        """, codes=["SIM007"])
        assert codes_of(findings) == ["SIM007"]

    def test_from_import_alias_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/sim/fx.py", """
            import heapq as hq
            from heapq import heappop as pop

            def f(h):
                hq.heappush(h, 1)
                return pop(h)
        """, codes=["SIM007"])
        assert codes_of(findings) == ["SIM007", "SIM007"]
        assert "heapq.heappush()" in findings[0].message

    def test_engine_exempt(self, tmp_path):
        findings = run_lint(tmp_path, "repro/sim/engine.py", """
            import heapq

            def f(h):
                heapq.heappush(h, 1)
        """, codes=["SIM007"])
        assert findings == []


# ----------------------------------------------------------------------
# bare print: ruff's T20 gate (the CI `lint` job), configured once in
# pyproject.toml
# ----------------------------------------------------------------------
def ruff_print_gate():
    """``(selected rule prefixes, {glob: ignored codes})`` of pyproject's
    ruff configuration."""
    import tomllib

    lint = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())[
        "tool"]["ruff"]["lint"]
    return lint["select"], lint["per-file-ignores"]


def print_exempt(path: str) -> bool:
    from fnmatch import fnmatch

    _, ignores = ruff_print_gate()
    return any(fnmatch(path, glob) and "T20" in codes
               for glob, codes in ignores.items())


class TestNoPrint:
    def test_print_in_library_flagged(self):
        select, _ = ruff_print_gate()
        assert "T20" in select
        for path in ("src/repro/core/fx.py", "src/repro/sim/network.py",
                     "src/repro/cluster.py", "src/repro/check/lint.py"):
            assert not print_exempt(path), path

    def test_cli_and_examples_exempt(self):
        _, ignores = ruff_print_gate()
        # exactly the three CLIs plus the non-library trees
        assert ignores == {
            "src/repro/cli.py": ["T20"],
            "src/repro/check/cli.py": ["T20"],
            "src/repro/perf/cli.py": ["T20"],
            "examples/*": ["T20"],
            "benchmarks/*": ["T20"],
            "tests/*": ["T20"],
        }
        for path in ("src/repro/cli.py", "src/repro/check/cli.py",
                     "src/repro/perf/cli.py"):
            assert (REPO_ROOT / path).is_file(), path
        for path in ("examples/fx.py", "benchmarks/fx.py", "tests/fx.py"):
            assert print_exempt(path), path


# ----------------------------------------------------------------------
# suppression machinery
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_justified_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(acc=[]):  # simcheck: ignore[SIM004] -- never mutated
                return acc
        """, codes=["SIM004"])
        assert findings == []

    def test_line_above_justified_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            # simcheck: ignore[SIM004] -- never mutated
            def f(acc=[]):
                return acc
        """, codes=["SIM004"])
        assert findings == []

    def test_unjustified_suppression_surfaces_sim000(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(acc=[]):  # simcheck: ignore[SIM004]
                return acc
        """, codes=["SIM004"])
        # the target rule stays silenced, but the missing justification
        # is a finding of its own: the check still fails
        assert codes_of(findings) == [SUPPRESSION_CODE]

    def test_suppression_only_covers_listed_codes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(acc=[]):  # simcheck: ignore[SIM006] -- wrong code
                return acc
        """, codes=["SIM004"])
        assert codes_of(findings) == ["SIM004"]

    def test_multi_code_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            # simcheck: ignore[SIM004, SIM006] -- fixture generator
            def f(deadline, acc=[]): return deadline == 0.0
        """, codes=["SIM004", "SIM006"])
        assert findings == []

    def test_unknown_code_in_suppression_surfaces_sim000(self, tmp_path):
        # SIM001 is retired (the contract forbids WALL_CLOCK): a stale
        # suppression naming it guards nothing
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(x):
                return x  # simcheck: ignore[SIM001] -- retired rule code
        """, codes=[])
        assert codes_of(findings) == [SUPPRESSION_CODE]
        assert "unknown rule" in findings[0].message

    def test_analyzer_codes_are_valid_suppression_targets(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(x):
                return x  # simcheck: ignore[EFF001, LAY001] -- transitional
        """, codes=[])
        assert findings == []


# ----------------------------------------------------------------------
# framework behaviors
# ----------------------------------------------------------------------
class TestFramework:
    def test_findings_sorted_and_formatted(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def g(acc=[]):
                return acc

            def f(deadline):
                return deadline == 0.0
        """, codes=["SIM006", "SIM004"])
        assert codes_of(findings) == ["SIM004", "SIM006"]
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        text = findings[1].format()
        assert "repro/core/fx.py:6:" in text and "SIM006" in text
        assert "hint:" in text

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = run_lint(tmp_path, "app/bad.py", "def f(:\n")
        assert codes_of(findings) == ["SIM999"]
        assert findings[0].path.endswith("app/bad.py")

    def test_rule_registry_complete(self):
        expected = {f"SIM00{i}" for i in range(3, 8)}
        assert {cls.code for cls in ALL_RULES} == expected
        for cls in ALL_RULES:
            rule = rule_by_code(cls.code)
            assert rule.rationale and rule.hint

    def test_rule_by_code_unknown(self):
        with pytest.raises(KeyError):
            rule_by_code("SIM042")


# ----------------------------------------------------------------------
# the gate the CI job enforces
# ----------------------------------------------------------------------
def test_live_tree_lints_clean():
    """``src/`` must be violation-free (modulo justified suppressions)."""
    graph = ProjectGraph.build(REPO_ROOT / "src", "repro")
    findings = graph.findings + run_lints(graph, all_rules())
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)
