"""Tests for the simcheck AST lint layer (SIM001..SIM007 + SIM000).

Each rule gets a fixture file with a known violation (written under a
``repro/...`` relative path so the path-scoped rules engage) plus a
negative fixture showing the sanctioned idiom passes.  Suppression
handling — same-line, line-above, and the mandatory justification —
is exercised against the framework, and the final test asserts the
live tree itself lints clean, which is the repository's CI gate.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.check import SourceFile, lint_file, lint_paths, rule_by_code
from repro.check.lint import SUPPRESSION_CODE
from repro.check.rules import ALL_RULES, all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, rel, source, codes=None):
    """Write ``source`` at ``tmp_path/rel`` and lint it.

    ``codes`` restricts the rule set (default: every registered rule).
    Returns the list of findings.
    """
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rules = all_rules() if codes is None else [rule_by_code(c) for c in codes]
    return lint_file(SourceFile.load(path, root=tmp_path), rules)


def codes_of(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# SIM001 wall clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import time

            def f() -> float:
                return time.time()
        """, codes=["SIM001"])
        assert codes_of(findings) == ["SIM001"]
        assert findings[0].line == 5
        assert "time.time" in findings[0].message
        assert findings[0].hint  # every finding carries a fix-it hint

    def test_datetime_now_and_from_import(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            from time import perf_counter
            from datetime import datetime

            def f():
                a = perf_counter()
                b = datetime.now()
                return a, b
        """, codes=["SIM001"])
        assert codes_of(findings) == ["SIM001", "SIM001"]

    def test_benchmarks_exempt(self, tmp_path):
        findings = run_lint(tmp_path, "benchmarks/fx.py", """
            import time

            def f() -> float:
                return time.perf_counter()
        """, codes=["SIM001"])
        assert findings == []

    def test_perf_harness_exempt(self, tmp_path):
        # repro/perf is the in-package benchmark harness: wall-clock
        # reads are its whole point
        findings = run_lint(tmp_path, "repro/perf/fx.py", """
            import time

            def f() -> float:
                return time.perf_counter()
        """, codes=["SIM001"])
        assert findings == []

    def test_simulated_clock_passes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(self) -> float:
                return self.sim.now
        """, codes=["SIM001"])
        assert findings == []


# ----------------------------------------------------------------------
# SIM002 unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_module_level_random_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import random

            def f() -> float:
                return random.random()
        """, codes=["SIM002"])
        assert codes_of(findings) == ["SIM002"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import numpy as np

            def f():
                return np.random.default_rng()
        """, codes=["SIM002"])
        assert codes_of(findings) == ["SIM002"]

    def test_seeded_instances_pass(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import random
            import numpy as np

            def f(seed: int):
                a = random.Random(seed)
                b = np.random.default_rng(seed)
                c = np.random.SeedSequence(seed)
                return a, b, c
        """, codes=["SIM002"])
        assert findings == []


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
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            from heapq import heappop as pop

            def f(h):
                return pop(h)
        """, codes=["SIM007"])
        assert codes_of(findings) == ["SIM007"]

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
            import time

            def f() -> float:
                return time.time()  # simcheck: ignore[SIM001] -- wall-clock report only
        """, codes=["SIM001"])
        assert findings == []

    def test_line_above_justified_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import time

            def f() -> float:
                # simcheck: ignore[SIM001] -- wall-clock report only
                return time.time()
        """, codes=["SIM001"])
        assert findings == []

    def test_unjustified_suppression_surfaces_sim000(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import time

            def f() -> float:
                return time.time()  # simcheck: ignore[SIM001]
        """, codes=["SIM001"])
        # the target rule stays silenced, but the missing justification
        # is a finding of its own: the check still fails
        assert codes_of(findings) == [SUPPRESSION_CODE]

    def test_suppression_only_covers_listed_codes(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import time

            def f() -> float:
                return time.time()  # simcheck: ignore[SIM002] -- wrong code
        """, codes=["SIM001"])
        assert codes_of(findings) == ["SIM001"]

    def test_multi_code_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            import time
            import random

            def f():
                # simcheck: ignore[SIM001, SIM002] -- seeded fixture generator
                return time.time() + random.random()
        """, codes=["SIM001", "SIM002"])
        assert findings == []

    def test_unknown_code_in_suppression_surfaces_sim000(self, tmp_path):
        findings = run_lint(tmp_path, "repro/core/fx.py", """
            def f(x):
                return x  # simcheck: ignore[SIM042] -- typo'd rule code
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
            import time

            def g() -> float:
                return time.time()

            def f(acc=[]):
                return acc
        """, codes=["SIM001", "SIM004"])
        assert codes_of(findings) == ["SIM001", "SIM004"]
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        text = findings[0].format()
        assert "repro/core/fx.py:5:" in text and "SIM001" in text
        assert "hint:" in text

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad], all_rules())
        assert codes_of(findings) == ["SIM999"]

    def test_rule_registry_complete(self):
        expected = {f"SIM00{i}" for i in range(1, 8)}
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
    findings = lint_paths([REPO_ROOT / "src"], all_rules(), root=REPO_ROOT)
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)
