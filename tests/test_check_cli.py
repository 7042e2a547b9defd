"""CLI-level tests for ``python -m repro.check``: exit codes, --explain,
and the JSON report schema (golden file under tests/golden/).

The golden fixture is a fixed synthetic project with exactly one layer
violation and one forbidden effect, so the reports exercise findings,
the effect table, and the certificate in one stable document.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.check.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

CONTRACT = """
[project]
package = "app"

[layers.core]
modules = ["app.core"]
may_import = []

[layers.sim]
modules = ["app.sim"]
may_import = ["core"]

[layers.harness]
modules = ["app"]
may_import = ["*"]

[[effects.forbid]]
trees = ["app.core"]
effects = ["WALL_CLOCK", "UNSEEDED_RNG", "FILE_IO", "NETWORK", "SIM_INTERNAL"]
reason = "the core is substrate-pure"
"""

CLEAN_FILES = {
    "src/app/__init__.py": "",
    "src/app/core/__init__.py": "",
    "src/app/sim/__init__.py": "",
    "src/app/core/proto.py": """
        def step(state: int) -> int:
            return state + 1
    """,
}

DIRTY_FILES = {
    **CLEAN_FILES,
    "src/app/sim/engine.py": """
        class Simulator:
            pass
    """,
    "src/app/core/proto.py": """
        import time

        from app.sim.engine import Simulator

        def stamp() -> float:
            return time.time()

        def boot():
            return Simulator()
    """,
}


def write_project(tmp_path: Path, files: dict[str, str]) -> None:
    (tmp_path / "layers.toml").write_text(textwrap.dedent(CONTRACT))
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))


@pytest.fixture
def clean_project(tmp_path, monkeypatch):
    write_project(tmp_path, CLEAN_FILES)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def dirty_project(tmp_path, monkeypatch):
    write_project(tmp_path, DIRTY_FILES)
    monkeypatch.chdir(tmp_path)
    return tmp_path


ARGS = ["--no-lint", "--no-mypy", "--effects", "--layers"]


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_project):
        assert main(ARGS) == 0

    def test_findings_exit_one(self, dirty_project):
        assert main(ARGS) == 1

    def test_bad_contract_exits_two(self, clean_project, capsys):
        (clean_project / "layers.toml").write_text(
            "[layers.core]\nmodules = []\n"
        )
        assert main(ARGS) == 2
        assert "contract error" in capsys.readouterr().err

    def test_unparseable_module_exits_one(self, clean_project, capsys):
        # the graph records the module, so the analyzers report it too
        (clean_project / "src/app/core/broken.py").write_text("def f(:\n")
        assert main(ARGS) == 1
        out = capsys.readouterr().out
        assert "src/app/core/broken.py:1:7: SIM999" in out
        assert "NOT certified" in out

    def test_unjustified_suppression_fails_every_pass(
        self, dirty_project, capsys
    ):
        proto = dirty_project / "src/app/core/proto.py"
        proto.write_text(proto.read_text().replace(
            "def stamp", "# simcheck: ignore[EFF001]\ndef stamp"))
        assert main(ARGS + ["--format", "json"]) == 1
        codes = [f["code"] for f in json.loads(
            capsys.readouterr().out)["findings"]]
        assert "SIM000" in codes and codes.count("EFF001") == 1

    def test_unknown_explain_exits_two(self):
        assert main(["--explain", "EFF999"]) == 2

    def test_missing_baseline_is_a_note_not_an_error(
        self, clean_project, capsys
    ):
        assert main(ARGS) == 0
        assert "no effect baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# --explain / --list-rules coverage of the analyzer codes
# ----------------------------------------------------------------------
class TestExplain:
    @pytest.mark.parametrize("code", [
        "EFF001", "EFF002", "LAY001", "LAY002", "LAY003",
        "SIM000", "SIM003",
    ])
    def test_explain_known_codes(self, code, capsys):
        assert main(["--explain", code]) == 0
        out = capsys.readouterr().out
        assert code in out
        assert "why :" in out and "fix :" in out

    def test_removed_rule_code_is_unknown(self, capsys):
        # SIM005 went when sent messages became immutable by construction
        assert main(["--explain", "SIM005"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules_covers_all_codes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM003", "SIM007", "SIM000", "SIM999",
                     "EFF001", "EFF002",
                     "LAY001", "LAY002", "LAY003"):
            assert code in out


# ----------------------------------------------------------------------
# JSON report schema
# ----------------------------------------------------------------------
class TestJsonReport:
    def run_json(self, capsys) -> tuple[int, dict]:
        code = main(ARGS + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        return code, doc

    def test_schema_fields(self, dirty_project, capsys):
        code, doc = self.run_json(capsys)
        assert code == 1
        assert doc["schema_version"] == 1
        assert doc["tool"] == "repro.check"
        for f in doc["findings"]:
            assert set(f) == {"code", "path", "line", "col",
                              "message", "hint"}
        assert doc["summary"]["total"] == len(doc["findings"])
        assert sum(doc["summary"]["by_code"].values()) == len(doc["findings"])

    def test_findings_content(self, dirty_project, capsys):
        _, doc = self.run_json(capsys)
        codes = {f["code"] for f in doc["findings"]}
        assert codes == {"EFF001", "LAY001"}

    def test_effect_table_and_certificate(self, dirty_project, capsys):
        _, doc = self.run_json(capsys)
        assert doc["effects"]["app.core.proto.stamp"] == ["WALL_CLOCK"]
        assert doc["certificate"]["certified"] is False
        assert doc["certificate"]["forbid"][0]["trees"] == ["app.core"]

    def test_clean_tree_is_certified(self, clean_project, capsys):
        code, doc = self.run_json(capsys)
        assert code == 0
        assert doc["findings"] == []
        assert doc["certificate"]["certified"] is True

    def test_report_file_written_in_human_mode(self, dirty_project, capsys):
        out_path = dirty_project / "report.json"
        code = main(ARGS + ["--report", str(out_path)])
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert doc["schema_version"] == 1
        # human findings still went to stdout
        assert "EFF001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# baseline workflow through the CLI
# ----------------------------------------------------------------------
class TestBaselineCli:
    def test_write_then_gate(self, dirty_project, capsys):
        # EFF001/LAY001 still fail, but drift is separate: write the
        # baseline, then the same tree produces no EFF002
        main(ARGS + ["--write-baseline"])
        assert (dirty_project / "EFFECTS_BASELINE.json").is_file()
        capsys.readouterr()
        main(ARGS + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert "EFF002" not in {f["code"] for f in doc["findings"]}

    def test_drift_detected(self, dirty_project, capsys):
        main(ARGS + ["--write-baseline"])
        proto = dirty_project / "src/app/core/proto.py"
        proto.write_text(proto.read_text() + textwrap.dedent("""
            def leak(name: str) -> str:
                with open(name) as fh:
                    return fh.read()
        """))
        capsys.readouterr()
        assert main(ARGS + ["--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert "EFF002" in {f["code"] for f in doc["findings"]}


# ----------------------------------------------------------------------
# golden file: the full report document, byte-exact
# ----------------------------------------------------------------------
class TestGolden:
    def normalize(self, text: str) -> str:
        return text.replace("\r\n", "\n")

    def test_json_golden(self, dirty_project, capsys):
        main(ARGS + ["--format", "json"])
        got = self.normalize(capsys.readouterr().out)
        want = (GOLDEN / "check_report.json").read_text()
        assert got == want


# ----------------------------------------------------------------------
# the real tree, through the top-level CLI dispatch
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_repro_check_certifies_live_tree(self, monkeypatch, capsys):
        # `repro check ARGS` hands ARGS unchanged to `python -m
        # repro.check`: one parser, the same exit code and stdout
        from repro.cli import main as repro_main

        monkeypatch.chdir(REPO_ROOT)
        runs = []
        for run in (lambda: repro_main(["check", "--effects", "--layers"]),
                    lambda: main(["--effects", "--layers"])):
            code = run()
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == 0 and "CERTIFIED" in out

    def test_live_baseline_is_current(self, monkeypatch, capsys):
        """The committed baseline matches a fresh analysis (no drift)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(ARGS + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["certified"] is True
        committed = json.loads(
            (REPO_ROOT / "EFFECTS_BASELINE.json").read_text()
        )
        assert doc["effects"] == committed["effects"]
