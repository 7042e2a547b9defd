"""Seeded-injection tests for the layer-contract checker (LAY001..003).

Same synthetic-package approach as ``test_check_effects``: plant a
layer violation, assert the checker reports it; show the sanctioned
crossings (may_import, ports of each kind) stay clean.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check.callgraph import ProjectGraph
from repro.check.contract import Contract, ContractError
from repro.check.layers import check_layers

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


def make_contract(ports=(), core_may_import=(), catch_all=True) -> Contract:
    layers = {
        "core": {"modules": ["app.core"],
                 "may_import": list(core_may_import)},
        "sim": {"modules": ["app.sim"], "may_import": ["core"]},
    }
    if catch_all:
        layers["harness"] = {"modules": ["app"], "may_import": ["*"]}
    return Contract.from_dict({
        "project": {"package": "app"},
        "layers": layers,
        "ports": list(ports),
    })


def run(tmp_path, files, **kw):
    return check_layers(build(tmp_path, files), make_contract(**kw))


CORE_USES_SIM = {
    "app/sim/engine.py": "class Simulator:\n    pass\n",
    "app/core/proto.py": """
        from app.sim.engine import Simulator

        def boot():
            return Simulator()
    """,
}


class TestLay001:
    def test_undeclared_crossing_flagged(self, tmp_path):
        findings = run(tmp_path, CORE_USES_SIM)
        assert [f.code for f in findings] == ["LAY001"]
        assert "app.sim.engine" in findings[0].message
        assert findings[0].line == 2  # the import line

    def test_may_import_allows(self, tmp_path):
        findings = run(tmp_path, CORE_USES_SIM, core_may_import=["sim"])
        assert findings == []

    def test_sanctioned_port_allows(self, tmp_path):
        findings = run(tmp_path, CORE_USES_SIM, ports=[{
            "importer": "app.core", "imported": "app.sim",
            "kind": "sanctioned", "reason": "reviewed crossing",
        }])
        assert findings == []

    def test_sim_may_import_core(self, tmp_path):
        findings = run(tmp_path, {
            "app/core/proto.py": "class Proto:\n    pass\n",
            "app/sim/engine.py": """
                from app.core.proto import Proto

                def host():
                    return Proto()
            """,
        })
        assert findings == []

    def test_typing_only_crossing_still_needs_port(self, tmp_path):
        findings = run(tmp_path, {
            "app/sim/engine.py": "class Simulator:\n    pass\n",
            "app/core/proto.py": """
                from __future__ import annotations

                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from app.sim.engine import Simulator

                def boot(sim: Simulator) -> None:
                    sim.step()
            """,
        })
        assert [f.code for f in findings] == ["LAY001"]
        assert "typing-only" in findings[0].message

    def test_forbidden_stdlib_import(self, tmp_path):
        graph = build(tmp_path, {
            "app/core/proto.py": """
                import time

                def stamp() -> float:
                    return time.monotonic()
            """,
        })
        contract = Contract.from_dict({
            "project": {"package": "app"},
            "layers": {
                "core": {"modules": ["app.core"], "may_import": [],
                         "forbidden_stdlib": ["time", "random"]},
                "harness": {"modules": ["app"], "may_import": ["*"]},
            },
        })
        findings = check_layers(graph, contract)
        assert [f.code for f in findings] == ["LAY001"]
        assert "'time'" in findings[0].message


class TestLay002:
    PORT = [{
        "importer": "app.core", "imported": "app.sim",
        "kind": "annotation-only", "reason": "type annotations only",
    }]

    def test_runtime_use_of_annotation_port(self, tmp_path):
        findings = run(tmp_path, CORE_USES_SIM, ports=self.PORT)
        assert [f.code for f in findings] == ["LAY002"]
        assert "Simulator" in findings[0].message

    def test_annotation_only_use_passes(self, tmp_path):
        findings = run(tmp_path, {
            "app/sim/engine.py": "class Simulator:\n    pass\n",
            "app/core/proto.py": """
                from __future__ import annotations

                from app.sim.engine import Simulator

                def boot(sim: Simulator) -> None:
                    sim.step()
            """,
        }, ports=self.PORT)
        assert findings == []

    def test_type_checking_block_passes(self, tmp_path):
        findings = run(tmp_path, {
            "app/sim/engine.py": "class Simulator:\n    pass\n",
            "app/core/proto.py": """
                from __future__ import annotations

                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from app.sim.engine import Simulator

                def boot(sim: Simulator) -> None:
                    sim.step()
            """,
        }, ports=self.PORT)
        assert findings == []


class TestLay003:
    def test_unassigned_module_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "app/core/proto.py": "",
        }, catch_all=False)
        # app/__init__, app/sim/__init__ fall outside core+sim... no:
        # app.sim matches the sim layer; app and app.core.* are covered
        # except the bare "app" package itself
        codes = {f.code for f in findings}
        assert codes == {"LAY003"}
        assert any("app is not assigned" in f.message for f in findings)

    def test_catch_all_assigns_everything(self, tmp_path):
        findings = run(tmp_path, {"app/core/proto.py": ""})
        assert findings == []

    def test_longest_prefix_wins(self, tmp_path):
        graph = build(tmp_path, {
            "app/core/proto.py": "",
            "app/core/shim.py": """
                from app.sim.engine import Simulator

                def host():
                    return Simulator()
            """,
            "app/sim/engine.py": "class Simulator:\n    pass\n",
        })
        contract = Contract.from_dict({
            "project": {"package": "app"},
            "layers": {
                "core": {"modules": ["app.core"], "may_import": []},
                "sim": {"modules": ["app.sim"], "may_import": ["core"]},
                # the shim is explicitly re-homed into the harness,
                # overriding the shorter app.core prefix
                "harness": {"modules": ["app", "app.core.shim"],
                            "may_import": ["*"]},
            },
        })
        findings = check_layers(graph, contract)
        assert findings == []


class TestContractValidation:
    def test_unknown_port_kind_rejected(self):
        with pytest.raises(ContractError, match="unknown kind"):
            make_contract(ports=[{
                "importer": "app.core", "imported": "app.sim",
                "kind": "wishful", "reason": "nope",
            }])

    def test_port_requires_reason(self):
        with pytest.raises(ContractError, match="no reason"):
            make_contract(ports=[{
                "importer": "app.core", "imported": "app.sim",
                "kind": "sanctioned",
            }])

    def test_unknown_may_import_rejected(self):
        with pytest.raises(ContractError, match="unknown layer"):
            Contract.from_dict({
                "layers": {
                    "core": {"modules": ["app.core"],
                             "may_import": ["nonexistent"]},
                },
            })

    def test_layer_without_modules_rejected(self):
        with pytest.raises(ContractError, match="no modules"):
            Contract.from_dict({"layers": {"core": {}}})

    def test_toml_load_round_trip(self, tmp_path):
        toml = tmp_path / "layers.toml"
        toml.write_text(textwrap.dedent("""
            [project]
            package = "app"

            [layers.core]
            modules = ["app.core"]
            may_import = []

            [[ports]]
            importer = "app.core"
            imported = "app.sim"
            kind = "data-only"
            reason = "vocabulary"

            [[effects.forbid]]
            trees = ["app.core"]
            effects = ["WALL_CLOCK"]
            reason = "same seed, same bytes"
        """))
        contract = Contract.load(toml)
        assert contract.package == "app"
        assert contract.layers["core"].modules == ("app.core",)
        assert contract.ports[0].kind == "data-only"
        assert contract.effect_forbids[0].trees == ("app.core",)

    def test_suppression_silences_layer_finding(self, tmp_path):
        findings = run(tmp_path, {
            "app/sim/engine.py": "class Simulator:\n    pass\n",
            "app/core/proto.py": """
                # simcheck: ignore[LAY001] -- transitional, tracked in #42
                from app.sim.engine import Simulator

                def boot():
                    return Simulator()
            """,
        })
        assert findings == []


class TestImportIsolation:
    def test_import_repro_loads_no_service_module(self):
        # the simulator's set-up must not pay for (or depend on) the
        # live stack: repro.loopback, which needs it, is not re-exported
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, repro; print(sorted(m for m in sys.modules "
                "if m.startswith(('repro.service', 'repro.loopback'))))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}).stdout
        assert out.strip() == "[]"
