"""``python -m repro.perf``: the metrics-registry overhead gate.

The CLI cases stub the measurement and pin the gate's exit codes and the
history file's handling; one case runs the real measurement once, so
tier-1 executes the gate's body.
"""

import json
from pathlib import Path

import pytest

from repro.perf import cli, run_overhead

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_overhead.json"


@pytest.fixture
def measured(monkeypatch):
    """Make ``run_overhead`` return a chosen ratio; the dict records
    how often it ran."""
    state = {"ratio": 1.0, "runs": 0}

    def stub(*, quick, threshold):
        state["runs"] += 1
        return {"reference": "opt_track_n10", "wall_off_s": 1.0,
                "wall_on_s": state["ratio"], "overhead_ratio": state["ratio"]}

    monkeypatch.setattr(cli, "run_overhead", stub)
    return state


def test_exit_code_is_the_gate(measured, capsys):
    measured["ratio"] = 1.0501
    assert cli.main(["--quick"]) == 1
    assert "METRICS OVERHEAD REGRESSION" in capsys.readouterr().out
    measured["ratio"] = 1.05  # at the threshold passes
    assert cli.main(["--quick"]) == 0
    assert "ratio 1.050x" in capsys.readouterr().out
    assert cli.main(["--threshold", "0.01"]) == 1
    measured["ratio"] = 0.97
    assert cli.main([]) == 0


def test_record_refreshes_an_entry_by_label(measured, tmp_path):
    path = tmp_path / "overhead.json"
    argv = ["--file", str(path), "--record"]
    assert cli.main(argv + ["a"]) == 0
    assert cli.main(argv + ["a", "--quick"]) == 0
    assert cli.main(argv + ["b"]) == 0
    measured["ratio"] = 1.2  # a failing reading is still recorded
    assert cli.main(argv + ["a"]) == 1
    entries = cli._load_overhead_file(path)["entries"]
    assert [e["label"] for e in entries] == ["a", "b"]
    assert sorted(entries[0]["modes"]) == ["full", "quick"]
    assert entries[0]["modes"]["full"]["overhead_ratio"] == 1.2
    assert entries[0]["modes"]["quick"]["overhead_ratio"] == 1.0


def test_a_file_that_is_not_overhead_history_is_refused(measured, tmp_path,
                                                        capsys):
    path = tmp_path / "other.json"
    foreign = json.dumps({"schema": 1, "bench": "hotpath", "entries": []})
    for text in (foreign, "not json"):
        path.write_text(text)
        assert cli.main(["--file", str(path), "--record", "x"]) == 2
        assert capsys.readouterr().err.startswith("--file: ")
        assert path.read_text() == text
    assert measured["runs"] == 0  # refused before measuring


@pytest.mark.parametrize("flag", [
    ["--compare", "BENCH_hotpath.json"], ["--micro-only"], ["--macro-only"],
    ["--overhead"], ["--overhead-file", "x.json"],
    ["--overhead-threshold", "0.1"],
])
def test_the_retired_suites_flags_are_gone(measured, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(flag)
    assert exc.value.code == 2
    assert measured["runs"] == 0


def test_committed_history_loads_and_its_newest_entry_has_both_modes():
    entries = cli._load_overhead_file(COMMITTED)["entries"]
    assert [e["label"] for e in entries[:2]] == [
        "v7-metrics-registry", "pr17-one-accounting-write"]
    assert set(entries[-1]["modes"]) == {"quick", "full"}


def test_the_gate_measures_a_real_ratio():
    # un-stubbed: one interleaved off/on pair of the reference run (one
    # escalation at most); the band is far wider than the 5% gate, this
    # only shows the body runs and divides the right way round
    result = run_overhead(quick=True, repeats=1)
    assert 0.5 < result["overhead_ratio"] < 2.0
    assert result["reference"] == "opt_track_n10"
    assert result["wall_off_s"] > 0 and result["wall_on_s"] > 0
