"""``python -m repro.perf --compare``: which committed entry is the gate.

The benches themselves are stubbed out — these tests pin the choice of
baseline entry, not the numbers.
"""

import json
from pathlib import Path

import pytest

from repro.perf import cli


def _entry(label, **events_per_sec_by_mode):
    return {"label": label, "modes": {
        mode: {"micro": {"events_per_sec": value}}
        for mode, value in events_per_sec_by_mode.items()
    }}


@pytest.fixture
def bench_file(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_micro",
        lambda quick: {"events_per_sec": 100.0, "benches": {}})

    def write(*entries):
        path = tmp_path / "BENCH_hotpath.json"
        path.write_text(json.dumps(
            {"schema": 1, "bench": "hotpath", "entries": list(entries)}))
        return str(path)

    return write


def test_compare_gates_against_the_newest_entry(bench_file, capsys):
    # the old entry would pass (100 vs 10); the newest must be the gate
    path = bench_file(_entry("old", quick=10.0, full=10.0),
                      _entry("new", quick=1000.0, full=1000.0))
    assert cli.main(["--quick", "--micro-only", "--compare", path]) == 1
    assert "PERF REGRESSION vs entry 'new'" in capsys.readouterr().out
    path = bench_file(_entry("old", quick=1000.0, full=1000.0),
                      _entry("new", quick=90.0, full=90.0))
    assert cli.main(["--quick", "--micro-only", "--compare", path]) == 0
    assert "perf gate OK vs entry 'new'" in capsys.readouterr().out


def test_compare_refuses_to_fall_back_to_an_older_entry(bench_file, capsys):
    path = bench_file(_entry("old", quick=10.0, full=10.0),
                      _entry("new", full=10.0))
    assert cli.main(["--quick", "--micro-only", "--compare", path]) == 2
    err = capsys.readouterr().err
    assert "'new'" in err and "'quick'" in err
    assert cli.main(["--micro-only", "--compare", path]) == 0


def test_committed_history_records_both_modes_in_its_newest_entry():
    committed = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
    data = cli.load_bench_file(committed)
    assert set(data["entries"][-1]["modes"]) >= {"quick", "full"}
