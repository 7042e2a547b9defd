"""Self-tests of the benchmark of record (run: python -m pytest bench/tests -q).

Outside tier-1's ``testpaths`` on purpose: they exercise the benchmark,
not the program.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

sys.path.insert(0, str(ROOT / "bench"))
import compare  # noqa: E402


def run(*args, cwd):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = run("--smoke", "--out", str(out), cwd=out)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads((out / "results.json").read_text())


def test_contract_names_are_well_formed():
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])


def test_smoke_reports_every_metric_with_its_unit(smoke):
    stdout, results = smoke
    assert sorted(results) == sorted(WORKLOADS)
    for part in ("end_to_end", "per_layer"):
        for metric in CONTRACT[part]:
            printed = re.findall(
                rf"^{re.escape(metric['name'])} = \S+ "
                rf"{re.escape(metric['unit'])}$", stdout, re.M)
            assert len(printed) >= len(WORKLOADS), metric["name"]
            for workload in WORKLOADS:
                assert results[workload]["correct"]
                assert metric["name"] in results[workload][part], (
                    workload, metric["name"])


def test_smoke_layers_separate_the_substrates(smoke):
    _, results = smoke

    def share(workload, layer):
        return results[workload]["per_layer"][f"{layer}.share"][0]

    assert share("sim_chaos_n20", "sim.reliable") > 0
    assert share("sim_crp_n40", "sim.reliable") == 0
    assert share("sim_crp_n40", "stdlib.asyncio") == 0
    assert share("live_mixed", "stdlib.asyncio") > 0
    assert share("live_mixed", "sim.engine") == 0
    assert results["live_mixed"]["per_layer"]["verify.violations"] == [0]


@pytest.mark.parametrize("workload", ["sim_crp_n40", "live_mixed"])
def test_injected_failed_op_turns_the_exit_code_non_zero(workload, tmp_path):
    done = run("--workload", workload, "--smoke", "--inject", "failed_op",
               cwd=tmp_path)
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED:" in done.stdout


@pytest.mark.parametrize("workload", ["sim_opt_track_n40", "live_owner_writes"])
def test_injected_checker_violation_turns_the_exit_code_non_zero(
        workload, tmp_path):
    done = run("--workload", workload, "--smoke", "--inject", "violation",
               cwd=tmp_path)
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "causal checker" in done.stdout


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.1)[0] == "unchanged"
    slower = [v * 0.8 for v in steady]
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "improved"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "higher", 0.1)[0] == "unresolved"
