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
                      "tests/test_service_channel.py",
                      "tests/test_service_live.py"]
    assert all((Path(__file__).parent.parent / s).exists() for s in suites)
    # no pipe, and bash -eo pipefail by the workflow's default anyway
    assert "|" not in step["run"] and "shell" not in step
    assert workflow["defaults"]["run"]["shell"] == "bash"


def test_live_smoke_job_names_suites_that_exist():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (step,) = [step for step in workflow["jobs"]["live-smoke"]["steps"]
               if step.get("name") == "Service substrate test suites"]
    suites = [w for w in step["run"].split() if w.startswith("tests/")]
    assert "tests/test_service_equivalence.py" in suites
    assert "tests/test_channel.py" in suites
    missing = [s for s in suites
               if not (Path(__file__).parent.parent / s).exists()]
    assert missing == []


def test_live_smoke_shutdown_leaves_no_node_running():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (step,) = [step for step in workflow["jobs"]["live-smoke"]["steps"]
               if step.get("name") == "Shut the cluster down"]
    run = step["run"]
    assert step.get("if") == "always()"
    # waits for serve itself to exit, then fails on any surviving node
    assert 'kill -0 "$pid"' in run
    assert 'if pgrep -af "repro _node"; then' in run
    assert run.count("exit 1") == 2


def test_live_smoke_boot_checks_every_nodes_peer_links():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (step,) = [step for step in workflow["jobs"]["live-smoke"]["steps"]
               if step.get("name") == "Boot a 3-node loopback cluster"]
    run = step["run"]
    # after "cluster up", each node's /status must list its 2 peer links
    assert run.index('grep -q "cluster up" serve.log') < run.index("curl -sf")
    assert "for port in 7403 7404 7405; do" in run
    assert '["peer_links"]' in run and "sys.exit(len(links) != 2)" in run


def test_live_smoke_puts_a_nan_before_the_checked_load():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    names = [step.get("name", "") for step in
             workflow["jobs"]["live-smoke"]["steps"]]
    nan = names.index("A PUT of a non-finite value is refused with 400")
    assert nan < names.index("Drive 200 ops via loadgen and verify causally")
    run = workflow["jobs"]["live-smoke"]["steps"][nan]["run"]
    assert '{"value": NaN}' in run and 'test "$code" = 400' in run


def test_lint_job_runs_ruff_with_the_print_gate():
    # bare print in library code has one gate, ruff's T20 (the SIM008
    # AST rule that duplicated it, with a second allowlist, is retired)
    import tomllib

    workflow = yaml.safe_load(WORKFLOW.read_text())
    (step,) = [step for step in workflow["jobs"]["lint"]["steps"]
               if "ruff check" in step.get("run", "")]
    words = step["run"].split()
    assert words[:3] == ["ruff", "check", "src/"]
    assert {"tests/", "examples/", "benchmarks/"} <= set(words[3:])
    assert not [w for w in words if w.startswith("--")]  # no --ignore etc.
    pyproject = tomllib.loads(
        (WORKFLOW.parents[2] / "pyproject.toml").read_text())
    assert "T20" in pyproject["tool"]["ruff"]["lint"]["select"]
    # the simcheck step names the rules that are registered
    from repro.check.rules import ALL_RULES

    (simcheck,) = [step for step in workflow["jobs"]["check"]["steps"]
                   if step.get("name", "").startswith("simcheck lints")]
    assert simcheck["name"] == (f"simcheck lints ({ALL_RULES[0].code}.."
                                f"{ALL_RULES[-1].code})")


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
                    "scipy"):
        assert package in install.split()
    assert "networkx" not in install
    # should the step ever tee, the pipefail rule walks this job too:
    # it inherits bash from the workflow and overrides it nowhere
    assert "defaults" not in job and "shell" not in step
    assert unguarded_tee_steps(workflow) == []


def test_networkx_is_installed_only_for_the_tier_1_suite():
    # networkx is the test-only oracle of tests/test_property_checker.py;
    # the checker and every other job run without it
    workflow = yaml.safe_load(WORKFLOW.read_text())
    installs = {
        name: " ".join(step["run"] for step in job.get("steps", [])
                       if "pip install" in step.get("run", ""))
        for name, job in workflow["jobs"].items()}
    tier_1 = [name for name, job in workflow["jobs"].items()
              if any("python -m pytest -x -q" in step.get("run", "")
                     for step in job.get("steps", []))]
    assert tier_1 == ["test"]
    assert "networkx" in installs["test"]
    assert [name for name, install in installs.items()
            if "networkx" in install and name != "test"] == []


def test_exhibits_job_runs_reproduce_and_uploads_its_report():
    # the CLI path to the same twelve exhibits, from one table
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["exhibits"]
    (step,) = [step for step in job["steps"]
               if "reproduce" in step.get("run", "")]
    assert step["run"].split() == [
        "PYTHONPATH=src", "python", "-m", "repro", "reproduce",
        "--ops", "20", "--outdir", "reproduce-smoke"]
    (upload,) = [step for step in job["steps"] if "with" in step
                 and "path" in step["with"]]
    assert upload["uses"].startswith("actions/upload-artifact@")
    assert upload["with"]["path"].split() == ["reproduce-smoke/REPORT.md"]


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


def test_hb_track_is_exercised_wherever_the_papers_four_are(monkeypatch):
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs["churn-matrix"]["strategy"]["matrix"]["protocol"] == [
        "full-track", "opt-track", "opt-track-crp", "optp", "hb-track"]
    double_runs = [step for step in jobs["check"]["steps"]
                   if "--double-run" in step.get("run", "")]
    assert len(double_runs) == 2
    for step in double_runs:
        # no hand list: the default is every registered protocol
        assert "--protocols" not in step["run"].split()
        assert "every registered protocol" in step["name"]
    from repro.check import cli, sanitizer
    from repro.core import protocol_names

    ran = []

    class Identical:
        identical = True

        def format(self):
            return ""

    monkeypatch.setattr(sanitizer, "double_run",
                        lambda config: ran.append(config.protocol) or Identical())
    assert cli.main(["--no-lint", "--no-mypy", "--double-run"]) == 0
    assert ran == protocol_names()
    assert {"full-track", "opt-track", "opt-track-crp", "optp", "hb-track",
            "opt-track-noprune"} <= set(ran)


def test_churn_matrix_gates_the_ledger_crosscheck():
    # `repro run --metrics` exits 1 on a ledger crosscheck MISMATCH; under
    # churn it did for Full-Track at churn seed 0 and nothing ran it.  One
    # run carries both gates, the causal checker's and the ledger's
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["churn-matrix"]
    (step,) = [step for step in job["steps"]
               if "repro run" in step.get("run", "")]
    run = re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", r"<\1>", step["run"])
    words = [w for w in run.split() if w != "\\"]
    assert words[:6] == ["PYTHONPATH=src", "python", "-m", "repro",
                         "run", "--check"]
    flags = words[words.index("--protocol"):words.index("|")]
    assert flags[flags.index("--metrics") + 1].startswith("churn-metrics-")
    assert "--churn-seed" in flags
    # the checker's regime: adversarial latency, `repro check`'s old
    # defaults spelled out
    assert flags[flags.index("-q") + 1] == "20"
    assert flags[flags.index("--latency") + 1] == "adversarial"
    # beside the n = 5 rows, the n > p leaver case for the two protocols
    # a late packet from the departed site once broke
    matrix = job["strategy"]["matrix"]
    assert matrix["size"] == ["-n 5"] and "<size>" in flags
    assert [(row["churn-seed"], row["protocol"], row["size"])
            for row in matrix["include"]] == [
        (2, "full-track", "-n 8 -p 3"), (2, "opt-track", "-n 8 -p 3")]
    # its exit code is the gate: teed, so pipefail, inherited from the
    # workflow and overridden nowhere
    assert words[words.index("|") + 1] == "tee"
    assert "defaults" not in job and "shell" not in step
    assert unguarded_tee_steps(workflow) == []


def test_chaos_matrix_checks_every_opt_track_log_variant():
    # MERGE deletes what a newer record proves dead; the checker is the
    # oracle for a rule that forgets, so it judges the log with and
    # without send-time pruning, at a partial-replication n > p, and at
    # one of the paper's cells.  Every other core runs the crash plan
    # under adversarial latency too, the regime where updates buffer
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["chaos-matrix"]
    assert job["strategy"]["matrix"]["fault-seed"] == [0, 1, 2]
    (step,) = [step for step in job["steps"]
               if "repro run --check" in step.get("run", "")]
    run = re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", r"<\1>", step["run"])
    commands = [cmd.split() for cmd in
                run.replace("\\\n", " ").strip().split("\n")]
    cases = []
    for words in commands:
        assert words[:6] == ["PYTHONPATH=src", "python", "-m", "repro",
                             "run", "--check"]
        assert words[words.index("--fault-seed") + 1] == "<fault-seed>"
        assert words[-1] == "causal-check-seed-<fault-seed>.txt"
        cases.append(" ".join(words[6:words.index("--fault-seed")]))
    assert cases == [
        "--protocol opt-track -n 5 -q 20 --ops 30 --latency adversarial"
        " --drop-rate 0.05 --crash-plan 600:1500:2",
        "--protocol opt-track -n 5 -q 20 --ops 30 --latency adversarial"
        " --drop-rate 0.05 --crash-plan 600:1500:2"
        " --overload-plan 300:900:10:0,1 --send-window 4",
        "--protocol opt-track-noprune -n 5 -q 20 --ops 30"
        " --latency adversarial --drop-rate 0.05 --crash-plan 600:1500:2",
        # every other core under the same crash plan, where updates buffer
        *[f"--protocol {protocol} -n 5 -q 20 --ops 30 --latency adversarial"
          " --drop-rate 0.05 --crash-plan 600:1500:2"
          for protocol in ("full-track", "opt-track-crp", "optp", "hb-track")],
        "--protocol opt-track -n 12 -p 4 -q 20 --ops 30 --latency uniform"
        " --drop-rate 0.05 --crash-plan 600:1500:2",
        # paper-scale cells: the checker keeps up with n = 20 and 40 at
        # 300 ops, under drops and under the crash plan
        "--protocol opt-track -n 20 -p 6 -q 100 --ops 300"
        " --latency adversarial --drop-rate 0.05",
        "--protocol opt-track-crp -n 40 --ops 300 --latency adversarial"
        " --drop-rate 0.05",
        "--protocol opt-track -n 20 --ops 300 --crash-plan 600:1500:2",
    ]
    # the registry exports the counts of the first two runs, the
    # overload and backpressure ones from the second
    assert [words[words.index("--metrics") + 1] for words in commands
            if "--metrics" in words] == [
        "chaos-metrics-seed-<fault-seed>",
        "chaos-overload-metrics-seed-<fault-seed>"]
    # each is a gate: teed into one report, so it must run under
    # pipefail, inherited from the workflow and overridden nowhere
    assert commands[0][-3:-1] == ["|", "tee"]
    assert all(words[-4:-1] == ["|", "tee", "-a"] for words in commands[1:])
    assert "defaults" not in job and "shell" not in step
    assert unguarded_tee_steps(workflow) == []
    # networkx is a test-only oracle: the checker runs here without it
    (install,) = [step["run"] for step in job["steps"]
                  if "pip install" in step.get("run", "")]
    assert "networkx" not in install


def checked_runs(job: dict) -> list[list[str]]:
    """The words of each ``repro run --check`` command in a job's steps,
    matrix expressions as ``<name>``."""
    runs = []
    for step in job["steps"]:
        run = re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", r"<\1>",
                     step.get("run", ""))
        for cmd in run.replace("\\\n", " ").split("\n"):
            words = cmd.split()
            if words[4:6] == ["run", "--check"]:
                runs.append(words[:words.index("|")] if "|" in words else words)
    return runs


def test_each_fault_matrix_checks_a_paper_scale_cell():
    # the checker counts a broken history's violations instead of
    # enumerating them, so it keeps up with the paper's cells under
    # drops, under a crash plan and under churn
    workflow = yaml.safe_load(WORKFLOW.read_text())

    def paper_scale(words):  # a matrix-sized run (``<size>``) is not
        return ("-n" in words and int(words[words.index("-n") + 1]) >= 20
                and int(words[words.index("--ops") + 1]) >= 300)

    chaos = checked_runs(workflow["jobs"]["chaos-matrix"])
    churn = checked_runs(workflow["jobs"]["churn-matrix"])
    assert [w for w in chaos if paper_scale(w) and "--drop-rate" in w
            and "--crash-plan" not in w]
    assert [w for w in chaos if paper_scale(w) and "--crash-plan" in w]
    assert [w for w in churn if paper_scale(w) and "--churn-joins" in w
            and "<churn-seed>" in w and "<protocol>" in w]


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
