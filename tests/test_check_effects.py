"""Seeded-injection tests for the whole-program effect analyzer.

Each test plants a known effect in a synthetic package under
``tmp_path`` and asserts the analyzer (callgraph -> leaf detection ->
fixpoint propagation -> contract policy) actually reports it — the
certificate is only worth committing if every effect class is
demonstrably detectable.  Negative twins show the sanctioned idioms
(seeded RNG, injected ports, annotation-only imports) stay clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.check.callgraph import ProjectGraph
from repro.check.contract import Contract, ContractError, EffectForbid
from repro.check.effects import (
    analyze_effects,
    diff_against_baseline,
    load_baseline,
    render_baseline,
)

BASE_FILES = {
    "app/__init__.py": "",
    "app/core/__init__.py": "",
    "app/sim/__init__.py": "",
}


def build(tmp_path: Path, files: dict[str, str]) -> ProjectGraph:
    for rel, src in {**BASE_FILES, **files}.items():
        p = tmp_path / "src" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return ProjectGraph.build(tmp_path / "src", "app")


def make_contract(ports=(), allows=()) -> Contract:
    return Contract.from_dict({
        "project": {"package": "app"},
        "layers": {
            "core": {"modules": ["app.core"], "may_import": []},
            "sim": {"modules": ["app.sim"], "may_import": ["core"]},
            "harness": {"modules": ["app"], "may_import": ["*"]},
        },
        "ports": list(ports),
        "effects": {
            "forbid": [{
                "trees": ["app.core"],
                "effects": [
                    "WALL_CLOCK", "UNSEEDED_RNG", "FILE_IO", "NETWORK",
                    "SIM_INTERNAL",
                ],
                "reason": "the core is substrate-pure",
            }],
            "allow": list(allows),
        },
    })


def run(tmp_path, files, **contract_kw):
    graph = build(tmp_path, files)
    contract = make_contract(**contract_kw)
    report = analyze_effects(graph, contract)
    return report, report.findings(contract)


def efff(findings, code="EFF001"):
    return [f for f in findings if f.code == code]


# ----------------------------------------------------------------------
# leaf detection, one test per effect class
# ----------------------------------------------------------------------
class TestLeafDetection:
    def test_wall_clock_direct(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                import time

                def stamp() -> float:
                    return time.time()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.core.proto.stamp"]
        assert len(efff(findings)) == 1
        assert "time.time" in findings[0].message

    def test_wall_clock_from_import(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                from time import perf_counter

                def stamp() -> float:
                    return perf_counter()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.core.proto.stamp"]

    def test_unseeded_rng(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                import random

                def draw() -> float:
                    return random.random()
            """,
        })
        assert "UNSEEDED_RNG" in report.effects["app.core.proto.draw"]
        assert efff(findings)

    # wall-clock reads and draws, seeded and unseeded, in every spelling
    @pytest.mark.parametrize("imports, expr, effect", [
        ("import time", "time.time()", "WALL_CLOCK"),
        ("from time import perf_counter", "perf_counter()", "WALL_CLOCK"),
        ("from datetime import datetime", "datetime.now()", "WALL_CLOCK"),
        ("import time as t", "t.process_time_ns()", "WALL_CLOCK"),
        ("", "self.sim.now", None),
        ("import random", "random.random()", "UNSEEDED_RNG"),
        ("import numpy as np", "np.random.default_rng()", "UNSEEDED_RNG"),
        ("import random", "random.Random(seed)", None),
        ("import numpy as np", "np.random.default_rng(seed)", None),
        ("import numpy as np", "np.random.SeedSequence(seed)", None),
    ], ids=["time.time", "perf_counter", "datetime.now", "process_time_ns",
            "sim.now", "random.random", "default_rng()", "Random(seed)",
            "default_rng(seed)", "SeedSequence(seed)"])
    def test_clock_and_rng_leaves(self, tmp_path, imports, expr, effect):
        report, _ = run(tmp_path, {"app/core/proto.py": (
            f"{imports}\n\ndef a(self, seed):\n    return {expr}\n")})
        assert report.effects["app.core.proto.a"] == (
            {effect} if effect else set())

    def test_seeded_rng_constructor_is_clean(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                import random

                def make(seed: int):
                    return random.Random(seed)
            """,
        })
        assert report.effects["app.core.proto.make"] == set()
        assert not findings

    def test_bare_rng_constructor_flagged(self, tmp_path):
        report, _ = run(tmp_path, {
            "app/core/proto.py": """
                import numpy

                def make():
                    return numpy.random.default_rng()
            """,
        })
        assert "UNSEEDED_RNG" in report.effects["app.core.proto.make"]

    def test_file_io_open_and_method(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                from pathlib import Path

                def dump(p: Path, data: str) -> None:
                    p.write_text(data)

                def slurp(name: str) -> str:
                    with open(name) as fh:
                        return fh.read()
            """,
        })
        assert "FILE_IO" in report.effects["app.core.proto.dump"]
        assert "FILE_IO" in report.effects["app.core.proto.slurp"]
        assert len(efff(findings)) == 2

    def test_network(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                import socket

                def dial(host: str):
                    return socket.create_connection((host, 80))
            """,
        })
        assert "NETWORK" in report.effects["app.core.proto.dial"]
        assert efff(findings)

    def test_network_through_the_event_loop(self, tmp_path):
        # the protocol-based dial / listen calls, on any receiver
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                async def dial(loop, factory, host: str):
                    return await loop.create_connection(factory, host, 80)

                async def listen(self, factory):
                    return await self._loop.create_server(factory, "", 80)
            """,
        })
        assert "NETWORK" in report.effects["app.core.proto.dial"]
        assert "NETWORK" in report.effects["app.core.proto.listen"]
        assert len(efff(findings)) == 2

    def test_sim_internal_runtime_reference(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/sim/engine.py": """
                class Simulator:
                    pass
            """,
            "app/core/proto.py": """
                from app.sim.engine import Simulator

                def boot():
                    return Simulator()
            """,
        })
        assert "SIM_INTERNAL" in report.effects["app.core.proto.boot"]
        assert efff(findings)

    def test_sim_annotation_only_is_clean(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/sim/engine.py": """
                class Simulator:
                    pass
            """,
            "app/core/proto.py": """
                from __future__ import annotations

                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from app.sim.engine import Simulator

                def run(sim: Simulator) -> None:
                    sim.step()
            """,
        })
        assert report.effects["app.core.proto.run"] == set()
        assert not findings


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
class TestPropagation:
    def test_transitive_effect_reaches_caller(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                import time

                def leaf() -> float:
                    return time.time()

                def middle() -> float:
                    return leaf()

                def top() -> float:
                    return middle()
            """,
        })
        for fn in ("leaf", "middle", "top"):
            assert "WALL_CLOCK" in report.effects[f"app.core.proto.{fn}"]
        # one EFF001 per function in the pure tree
        assert len(efff(findings)) == 3

    def test_witness_chain_names_the_path(self, tmp_path):
        report, _ = run(tmp_path, {
            "app/core/proto.py": """
                import time

                def leaf() -> float:
                    return time.time()

                def top() -> float:
                    return leaf()
            """,
        })
        chain = report.chain("app.core.proto.top", "WALL_CLOCK")
        assert "app.core.proto.leaf" in chain[0]
        assert "time.time" in chain[-1]

    def test_cross_module_propagation(self, tmp_path):
        report, _ = run(tmp_path, {
            "app/core/proto.py": """
                from app.core.util import now

                def top() -> float:
                    return now()
            """,
            "app/core/util.py": """
                import time

                def now() -> float:
                    return time.time()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.core.proto.top"]

    def test_method_call_through_self(self, tmp_path):
        report, _ = run(tmp_path, {
            "app/core/proto.py": """
                import time

                class Proto:
                    def _stamp(self) -> float:
                        return time.time()

                    def act(self) -> float:
                        return self._stamp()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.core.proto.Proto.act"]

    def test_module_level_code_has_effects(self, tmp_path):
        report, _ = run(tmp_path, {
            "app/core/proto.py": """
                import time

                T0 = time.time()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.core.proto.<module>"]

    def test_injected_port_calls_stay_opaque(self, tmp_path):
        # self.ctx.network.send resolves to nothing: no effect
        report, findings = run(tmp_path, {
            "app/core/proto.py": """
                class Proto:
                    def __init__(self, ctx):
                        self.ctx = ctx

                    def emit(self, msg) -> None:
                        self.ctx.network.send(msg)
            """,
        })
        assert report.effects["app.core.proto.Proto.emit"] == set()
        assert not findings

    def test_effect_outside_pure_tree_not_a_finding(self, tmp_path):
        report, findings = run(tmp_path, {
            "app/harness.py": """
                import time

                def bench() -> float:
                    return time.time()
            """,
        })
        assert "WALL_CLOCK" in report.effects["app.harness.bench"]
        assert not findings  # harness is allowed its effects


# ----------------------------------------------------------------------
# policy: allows, suppressions
# ----------------------------------------------------------------------
class TestPolicy:
    def test_contract_allow_silences(self, tmp_path):
        _, findings = run(tmp_path, {
            "app/core/proto.py": """
                import time

                def stamp() -> float:
                    return time.time()
            """,
        }, allows=[{
            "function": "app.core.proto.stamp",
            "effects": ["WALL_CLOCK"],
            "reason": "report-only timing",
        }])
        assert not efff(findings)

    def test_allow_requires_reason(self):
        with pytest.raises(ContractError, match="no reason"):
            make_contract(allows=[{
                "function": "app.core.x", "effects": ["FILE_IO"],
            }])

    def test_forbid_needs_reason_and_known_effects(self):
        with pytest.raises(ContractError, match="no reason"):
            Contract.from_dict({"effects": {"forbid": [{
                "trees": ["app"], "effects": ["WALL_CLOCK"],
            }]}})
        with pytest.raises(ContractError, match="unknown effect"):
            Contract.from_dict({"effects": {"forbid": [{
                "trees": ["app"], "effects": ["WALL_CLOK"], "reason": "r",
            }]}})

    def test_second_rule_reaches_outside_the_pure_tree(self, tmp_path):
        graph = build(tmp_path, {
            "app/sim/clock.py": """
                import time

                def stamp() -> float:
                    return time.time()
            """,
        })
        contract = make_contract()
        contract.effect_forbids.append(
            EffectForbid(("app",), ("WALL_CLOCK",), "same seed, same bytes"))
        findings = analyze_effects(graph, contract).findings(contract)
        assert [f.code for f in findings] == ["EFF001"]
        assert "forbids in app:" in findings[0].message

    def test_inline_suppression_with_reason(self, tmp_path):
        _, findings = run(tmp_path, {
            "app/core/proto.py": """
                import time

                # simcheck: ignore[EFF001] -- timing is report-only here
                def stamp() -> float:
                    return time.time()
            """,
        })
        assert not efff(findings)


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    FILES = {
        "app/harness.py": """
            import time

            def bench() -> float:
                return time.time()
        """,
    }

    def test_round_trip_no_drift(self, tmp_path):
        report, _ = run(tmp_path, self.FILES)
        path = tmp_path / "EFFECTS_BASELINE.json"
        path.write_text(render_baseline(report, "app"))
        baseline = load_baseline(path)
        assert baseline is not None
        assert baseline["app.harness.bench"] == {"WALL_CLOCK"}
        assert diff_against_baseline(report, baseline) == []

    def test_new_effect_is_drift(self, tmp_path):
        report, _ = run(tmp_path, self.FILES)
        path = tmp_path / "EFFECTS_BASELINE.json"
        path.write_text(render_baseline(report, "app"))
        baseline = load_baseline(path)
        # the code gains an effect the baseline has not seen
        report2, _ = run(tmp_path, {
            "app/harness.py": """
                import time

                def bench() -> float:
                    open("/tmp/x")
                    return time.time()
            """,
        })
        drift = diff_against_baseline(report2, baseline)
        assert [f.code for f in drift] == ["EFF002"]
        assert "FILE_IO" in drift[0].message

    def test_losing_an_effect_is_not_drift(self, tmp_path):
        report, _ = run(tmp_path, self.FILES)
        path = tmp_path / "EFFECTS_BASELINE.json"
        path.write_text(render_baseline(report, "app"))
        baseline = load_baseline(path)
        report2, _ = run(tmp_path, {
            "app/harness.py": """
                def bench() -> float:
                    return 0.0
            """,
        })
        assert diff_against_baseline(report2, baseline) == []

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None
