"""CI self-tests: a gate whose output is piped into ``tee`` must be able
to fail, and the benchmark's by-name log counters must be checked.

GitHub runs a step with no explicit shell as ``bash -e`` — no
``pipefail`` — so ``gate | tee log`` exits with tee's status and the
gate is decorative.  An explicit ``shell: bash`` (on the step, the job's
or the workflow's ``defaults.run``) runs ``bash -eo pipefail``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def unguarded_tee_steps(workflow: dict) -> list[str]:
    """``job/step`` names of ``run:`` blocks that pipe into ``tee``
    and would execute without ``pipefail``."""

    def default_shell(scope: dict):
        return ((scope.get("defaults") or {}).get("run") or {}).get("shell")

    bad = []
    for job_name, job in workflow["jobs"].items():
        for index, step in enumerate(job.get("steps", [])):
            script = step.get("run", "")
            if "| tee" not in script:
                continue
            shell = (step.get("shell") or default_shell(job)
                     or default_shell(workflow))
            if shell != "bash" and "pipefail" not in script:
                bad.append(f"{job_name}/{step.get('name', index)}")
    return bad


def test_detects_a_tee_step_outside_pipefail():
    masked = yaml.safe_load("""
        jobs:
          gate:
            steps:
              - name: masked
                run: exit 1 | tee out.txt
              - name: explicit shell
                shell: bash
                run: exit 1 | tee out.txt
              - name: sets it itself
                run: |
                  set -o pipefail
                  exit 1 | tee out.txt
              - name: no pipe
                run: exit 1
          job-default:
            defaults: {run: {shell: bash}}
            steps:
              - run: exit 1 | tee out.txt
          sh-default:
            defaults: {run: {shell: sh}}
            steps:
              - run: exit 1 | tee out.txt
    """)
    assert unguarded_tee_steps(masked) == ["gate/masked", "sh-default/0"]
    masked["defaults"] = {"run": {"shell": "bash"}}
    assert unguarded_tee_steps(masked) == ["sh-default/0"]


def test_committed_workflow_gates_can_fail():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    tee_steps = [step for job in workflow["jobs"].values()
                 for step in job["steps"] if "| tee" in step.get("run", "")]
    # the gates this test exists to protect (7 until the timed
    # `repro.perf --compare` step was retired with its suite)
    assert len(tee_steps) >= 6
    assert unguarded_tee_steps(workflow) == []


def test_tier_1_job_runs_the_live_suites_in_asyncio_debug_mode():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["test"]
    (step,) = [step for step in job["steps"]
               if "-X dev" in step.get("run", "")]
    assert step["if"] == "matrix.python-version == '3.12'"
    assert "3.12" in job["strategy"]["matrix"]["python-version"]
    words = step["run"].split()
    assert words[:7] == ["PYTHONPATH=src", "python", "-X", "dev", "-W",
                         "error::ResourceWarning", "-m"]
    suites = [w for w in words if w.startswith("tests/")]
    assert suites == ["tests/test_service_api.py",
                      "tests/test_service_link.py",
                      "tests/test_service_fuzz.py",
                      "tests/test_service_channel.py"]
    assert all((Path(__file__).parent.parent / s).exists() for s in suites)
    # no pipe, and bash -eo pipefail by the workflow's default anyway
    assert "|" not in step["run"] and "shell" not in step
    assert workflow["defaults"]["run"]["shell"] == "bash"


def test_exhibits_job_runs_the_papers_benchmarks():
    # ROADMAP item 6-iii: the Section-V regression suite ran nowhere
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["exhibits"]
    (step,) = [step for step in job["steps"]
               if "benchmarks/" in step.get("run", "")]
    assert step["run"].split() == [
        "PYTHONPATH=src", "python", "-m", "pytest", "benchmarks/",
        "--benchmark-disable", "-q"]
    (install,) = [step["run"] for step in job["steps"]
                  if "pip install" in step.get("run", "")]
    for package in ("pytest", "pytest-benchmark", "hypothesis", "numpy",
                    "networkx", "scipy"):
        assert package in install.split()
    # should the step ever tee, the pipefail rule walks this job too:
    # it inherits bash from the workflow and overrides it nowhere
    assert "defaults" not in job and "shell" not in step
    assert unguarded_tee_steps(workflow) == []


def test_perf_smoke_is_the_overhead_gate_plus_untimed_micro_information():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    scripts = [step.get("run", "") for job in workflow["jobs"].values()
               for step in job["steps"]]
    # the retired suite: a timed comparison with a committed number
    assert not [s for s in scripts if "BENCH_hotpath" in s or "--compare" in s]
    job = workflow["jobs"]["perf-smoke"]
    (gate,) = [step for step in job["steps"]
               if "repro.perf" in step.get("run", "")]
    assert gate["run"].split() == [
        "PYTHONPATH=src", "python", "-m", "repro.perf", "--quick",
        "|", "tee", "overhead-gate.txt"]
    # teed, so it must run under pipefail: inherited, overridden nowhere
    assert "defaults" not in job and "shell" not in gate
    assert unguarded_tee_steps(workflow) == []
    (micro,) = [step for step in job["steps"]
                if "bench_micro_structures" in step.get("run", "")]
    words = micro["run"].split()
    assert words[:5] == ["PYTHONPATH=src", "python", "-m", "pytest",
                         "benchmarks/bench_micro_structures.py"]
    assert "--benchmark-only" in words and "--benchmark-json" in words
    # information: nothing that turns a timing into an exit code
    assert not [w for w in words if w.startswith("--benchmark-compare")]
    (install,) = [step["run"] for step in job["steps"]
                  if "pip install" in step.get("run", "")]
    assert {"pytest", "pytest-benchmark"} <= set(install.split())
    (upload,) = [step for step in job["steps"] if "with" in step
                 and "path" in step["with"]]
    assert upload["with"]["path"].split() == [
        "overhead-gate.txt", "micro.json", "BENCH_overhead.json"]


def test_hb_track_is_exercised_wherever_the_papers_four_are():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs["churn-matrix"]["strategy"]["matrix"]["protocol"] == [
        "full-track", "opt-track", "opt-track-crp", "optp", "hb-track"]
    double_runs = [step for step in jobs["check"]["steps"]
                   if "--double-run" in step.get("run", "")]
    assert len(double_runs) == 2
    for step in double_runs:
        words = step["run"].split()
        assert words[words.index("--protocols") + 1] == (
            "full-track,opt-track,opt-track-crp,optp,hb-track")
        assert "5 protocols" in step["name"]


def test_churn_matrix_gates_the_ledger_crosscheck():
    # `repro metrics run` exits 1 on a ledger crosscheck MISMATCH; under
    # churn it did for Full-Track at churn seed 0 and nothing ran it
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["churn-matrix"]

    def sim_flags(run: str) -> list[str]:
        """The simulated run's flags, without the verb's output files."""
        run = re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", r"<\1>", run)
        words = [w for w in run.split() if w != "\\"]
        words = words[words.index("--protocol"):words.index("|")]
        for flag in ("--dump-fault-plan", "--metrics-dir"):
            if flag in words:
                del words[words.index(flag):words.index(flag) + 2]
        return words

    (check,) = [step["run"] for step in job["steps"]
                if "repro check" in step.get("run", "")]
    (ledger,) = [step for step in job["steps"]
                 if "repro metrics run" in step.get("run", "")]
    words = ledger["run"].split()
    assert words[:6] == ["PYTHONPATH=src", "python", "-m", "repro",
                         "metrics", "run"]
    assert sim_flags(ledger["run"]) == sim_flags(check)
    assert "--churn-seed" in sim_flags(check)
    # its exit code is the gate: teed, so pipefail, inherited from the
    # workflow and overridden nowhere
    assert words[words.index("|") + 1] == "tee"
    assert "defaults" not in job and "shell" not in ledger
    assert unguarded_tee_steps(workflow) == []


def test_chaos_matrix_checks_every_opt_track_log_variant():
    # MERGE deletes what a newer record proves dead; the checker is the
    # oracle for a rule that forgets, so it judges the log with and
    # without send-time pruning, and at a partial-replication n > p
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["chaos-matrix"]
    assert job["strategy"]["matrix"]["fault-seed"] == [0, 1, 2]
    (step,) = [step for step in job["steps"]
               if "repro check" in step.get("run", "")]
    run = re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", r"<\1>", step["run"])
    commands = [cmd.split() for cmd in
                run.replace("\\\n", " ").strip().split("\n")]
    cases = []
    for words in commands:
        assert words[:5] == ["PYTHONPATH=src", "python", "-m", "repro",
                             "check"]
        assert words[words.index("--fault-seed") + 1] == "<fault-seed>"
        assert words[-1] == "causal-check-seed-<fault-seed>.txt"
        cases.append(" ".join(words[5:words.index("--fault-seed")]))
    assert cases == [
        "--protocol opt-track -n 5 --ops 30"
        " --drop-rate 0.05 --crash-plan 600:1500:2",
        "--protocol opt-track-noprune -n 5 --ops 30"
        " --drop-rate 0.05 --crash-plan 600:1500:2",
        "--protocol opt-track -n 12 -p 4 --latency uniform --ops 30"
        " --drop-rate 0.05 --crash-plan 600:1500:2",
    ]
    # each is a gate: teed into one report, so it must run under
    # pipefail, inherited from the workflow and overridden nowhere
    assert commands[0][-3:-1] == ["|", "tee"]
    assert all(words[-4:-1] == ["|", "tee", "-a"] for words in commands[1:])
    assert "defaults" not in job and "shell" not in step
    assert unguarded_tee_steps(workflow) == []


GOLDEN_COUNTS = Path(__file__).parent / "golden" / "bench_smoke_counts.json"


def bench_smoke_count_step(tmp_path):
    """The bench-smoke count step's own script, run on made-up results
    that pass it; returns ``(results, run_step)``."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (step,) = [step["run"] for step in workflow["jobs"]["bench-smoke"]["steps"]
               if "core.log.merge_calls" in step.get("run", "")]
    script = step.split("<<'EOF'\n")[1].split("\nEOF")[0]
    counted = ("core.log.piggyback_views_calls", "core.log.merge_calls")
    limited = ("service.channel.msgs_sent", "service.api.connections_per_op",
               "service.api.non200", "service.node.close_errors",
               "service.codec.dumps_calls", "service.channel.retransmissions")
    golden = {name: counts
              for name, counts in json.loads(GOLDEN_COUNTS.read_text()).items()
              if not name.startswith("_")}
    results = {
        name: {"per_layer": {**{m: [0] for m in limited},
                             **{m: [7] for m in counted},
                             **{m: [float(v)] for m, v in
                                golden.get(name, {}).items()}}}
        for name in (*golden, "live_mixed", "live_owner_writes")
    }
    # the step reads both files relative to the checkout root
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    (tmp_path / "tests" / "golden" / GOLDEN_COUNTS.name).write_text(
        GOLDEN_COUNTS.read_text())
    out = tmp_path / "bench-smoke" / "results.json"
    out.parent.mkdir()

    def run_step():
        out.write_text(json.dumps(results))
        return subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    assert run_step().returncode == 0
    return results, run_step


def test_bench_smoke_fails_on_a_zeroed_log_counter(tmp_path):
    # bench/metrics.py attributes these two by function name in
    # core/log.py; a rename zeroes them without failing anything else.
    results, run_step = bench_smoke_count_step(tmp_path)
    for name in ("sim_opt_track_n40", "live_mixed", "live_owner_writes"):
        for metric in ("core.log.piggyback_views_calls",
                       "core.log.merge_calls"):
            results[name]["per_layer"][metric] = [0]
            failed = run_step()
            assert failed.returncode != 0
            assert f"{name}: {metric} = 0" in failed.stderr
            results[name]["per_layer"][metric] = [7]


def test_bench_smoke_fails_on_any_moved_deterministic_count(tmp_path):
    # events, messages and metadata bytes of a seeded simulator workload
    # repeat exactly; the golden was written by the commit before the
    # ready-on-arrival / shared-multicast change, which must not move them,
    # and the chaos workload's channel and injector counts by the commit
    # before the buffered fault stream, which must not move those
    results, run_step = bench_smoke_count_step(tmp_path)
    golden = json.loads(GOLDEN_COUNTS.read_text())
    workloads = [name for name in golden if not name.startswith("_")]
    assert sorted(workloads) == ["sim_chaos_n20", "sim_crp_n40",
                                 "sim_full_track_n40", "sim_opt_track_n40"]
    chaos_layer = ["sim.faults.injected_drops", "sim.faults.injected_dups",
                   "sim.reliable.acks_sent", "sim.reliable.duplicate_drops",
                   "sim.reliable.retransmissions",
                   "sim.reliable.spurious_retransmissions"]
    for name in workloads:
        assert sorted(golden[name]) == sorted(
            ["metrics.sizing.meta_bytes_total", "sim.engine.events",
             "sim.network.msgs"]
            + (chaos_layer if name == "sim_chaos_n20" else []))
        for metric, expected in golden[name].items():
            for moved in (expected + 1, expected - 1):
                results[name]["per_layer"][metric] = [float(moved)]
                failed = run_step()
                assert failed.returncode != 0
                assert (f"{name}: {metric} = {float(moved)}, golden {expected}"
                        in failed.stderr)
            results[name]["per_layer"][metric] = [float(expected)]
    assert run_step().returncode == 0
