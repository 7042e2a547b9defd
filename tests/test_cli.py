"""Tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.check.cli import build_parser as build_check_parser
from repro.cli import build_parser, main
from repro.service.bootstrap import (
    build_placement,
    default_topology,
    load_topology,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "opt-track"
        assert args.sites == 10

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "bogus"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "opt-track" in out and "fig1" in out and "table4" in out

    def test_run_small(self, capsys):
        rc = main(["run", "-n", "3", "--ops", "15", "--protocol", "optp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SM_count" in out

    def test_run_with_check(self, capsys):
        rc = main(["run", "-n", "3", "--ops", "15", "--protocol", "opt-track",
                   "--check", "--latency", "adversarial"])
        assert rc == 0
        assert "causal consistency: OK" in capsys.readouterr().out

    def test_check_command(self, capsys):
        # adversarial latency reorders enough for updates to be buffered
        rc = main(["run", "--check", "-n", "4", "-q", "20", "--ops", "20",
                   "--latency", "adversarial", "--protocol", "full-track"])
        assert rc == 0
        assert "causal consistency: OK" in capsys.readouterr().out

    def test_analytic(self, capsys):
        rc = main(["analytic", "-n", "20", "-w", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "opt-track-crp" in out and "partial message count" in out

    def test_crossover(self, capsys):
        rc = main(["analytic", "-n", "2"])
        assert rc == 0
        assert "w_rate > 2/(n+1) = 0.667" in capsys.readouterr().out

    def test_experiment_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        rc = main(["experiment", "eq2", "--ops", "12", "--csv", str(csv_path)])
        assert rc == 0
        text = csv_path.read_text()
        assert "write_rate" in text.splitlines()[0]
        assert len(text.splitlines()) > 5

    def test_experiment_fig1_tiny(self, capsys):
        rc = main(["experiment", "fig1", "--ops", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestOverloadFlags:
    def test_overload_plan_parsed(self):
        args = build_parser().parse_args(
            ["run", "--overload-plan", "900:2600:25:0,2",
             "--overload-plan", "3200:3800:15:2"])
        assert args.overload_plan == ["900:2600:25:0,2", "3200:3800:15:2"]

    def test_bad_overload_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "-n", "3", "--ops", "5",
                  "--overload-plan", "not-a-plan"])

    def test_rto_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--adaptive-rto", "--fixed-rto"])

    def test_run_with_overload_and_window(self, capsys):
        rc = main(["run", "-n", "3", "-q", "10", "--ops", "15",
                   "--protocol", "optp", "--drop-rate", "0.05",
                   "--overload-plan", "100:400:50:0",
                   "--send-window", "8", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "causal consistency: OK" in out

    def test_run_with_fixed_rto(self, capsys):
        rc = main(["run", "-n", "3", "-q", "10", "--ops", "15",
                   "--protocol", "optp", "--drop-rate", "0.1",
                   "--fixed-rto", "--check"])
        assert rc == 0
        assert "causal consistency: OK" in capsys.readouterr().out

    def test_bad_send_window_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "-n", "3", "--ops", "5", "--drop-rate", "0.1",
                  "--send-window", "0"])


class TestSavedFileErrors:
    """A missing or malformed saved trace / run directory is a one-line
    exit naming the file, never a traceback."""

    @staticmethod
    def exit_message(argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    def test_verify_trace_on_a_missing_dir(self, tmp_path):
        missing = str(tmp_path / "does-not-exist")
        message = self.exit_message(["verify-trace", missing])
        assert missing in message and "FileNotFoundError" in message

    def test_verify_trace_on_a_malformed_config(self, tmp_path):
        (tmp_path / "config.json").write_text("{not json")
        message = self.exit_message(["verify-trace", str(tmp_path)])
        assert "JSONDecodeError" in message

    def test_verify_trace_on_a_config_missing_a_field(self, tmp_path):
        (tmp_path / "config.json").write_text('{"protocol": "optp"}')
        (tmp_path / "history.jsonl").write_text("")
        assert "KeyError" in self.exit_message(["verify-trace", str(tmp_path)])

    @pytest.mark.parametrize("verb", ["summarize", "diff"])
    def test_trace_verbs_on_a_missing_file(self, tmp_path, verb):
        missing = str(tmp_path / "does-not-exist.jsonl")
        argv = ["trace", verb, missing] + ([missing] if verb == "diff" else [])
        message = self.exit_message(argv)
        assert missing in message and "FileNotFoundError" in message

    @pytest.mark.parametrize("verb", ["summarize", "diff"])
    @pytest.mark.parametrize("text", ["{not json\n", "[1, 2]\n", '{"a": 1}\n'],
                             ids=["not-json", "not-an-object", "not-an-event"])
    def test_trace_verbs_on_a_malformed_file(self, tmp_path, verb, text):
        bad = tmp_path / "trace.jsonl"
        bad.write_text(text)
        argv = ["trace", verb, str(bad)] + ([str(bad)] if verb == "diff" else [])
        assert str(bad) in self.exit_message(argv)


#: ``run`` alone and with each of its three outputs; the ids name the
#: verbs the outputs replaced (``check``, ``trace run``, ``metrics run``)
RUN_OUTPUTS = [["run"], ["run", "--check"], ["run", "--trace", "T"],
               ["run", "--metrics", "M"]]
RUN_OUTPUT_IDS = ["run", "check", "trace-run", "metrics-run"]


class TestBadArguments:
    """An argument no run can take is a one-line exit naming the flag or
    file on every output of the verb that simulates and on every verb
    that loads a topology, never a traceback from deep in the stack."""

    exit_message = staticmethod(TestSavedFileErrors.exit_message)

    @pytest.mark.parametrize("verb", RUN_OUTPUTS, ids=RUN_OUTPUT_IDS)
    @pytest.mark.parametrize("flags, named", [
        (["-n", "0"], "-n/--sites"),
        (["-q", "0", "--ops", "5"], "-q/--vars"),
        (["--ops", "0"], "--ops"),
        (["-w", "2", "--ops", "5"], "-w/--write-rate"),
        (["-p", "0", "--ops", "5"], "-p/--replicas"),
        (["-n", "3", "-p", "4", "--ops", "5"], "-p/--replicas"),
    ], ids=["sites", "vars", "ops", "write-rate", "replicas-0",
            "replicas-past-n"])
    def test_simulate_verbs(self, tmp_path, monkeypatch, verb, flags, named):
        monkeypatch.chdir(tmp_path)
        assert named in self.exit_message(verb + flags)

    @pytest.mark.parametrize("verb", RUN_OUTPUTS, ids=RUN_OUTPUT_IDS)
    @pytest.mark.parametrize("flags, named", [
        (["--crash-plan", "100:200:9"], "--crash-plan"),
        (["--partition", "0:100:7"], "--partition"),
        (["--overload-plan", "0:100:10:9"], "--overload-plan"),
        (["--checkpoint-interval", "-5"], "--checkpoint-interval"),
        (["--auto-evict", "500"], "--auto-evict"),
        (["--auto-evict", "-5", "--drop-rate", "0.1"], "--auto-evict"),
    ], ids=["crash-plan-site", "partition-site", "overload-site",
            "checkpoint-interval", "auto-evict-without-chaos",
            "auto-evict-negative"])
    def test_fault_flags(self, tmp_path, monkeypatch, verb, flags, named):
        # each used to raise deep in the stack, or to run a fault that
        # hit no site; none may start a run, nor write the plan it refused
        monkeypatch.chdir(tmp_path)
        message = self.exit_message(verb + ["-n", "4", "--ops", "5"] + flags
                                    + ["--dump-fault-plan", "plan.json"])
        assert named in message
        assert not any(tmp_path.iterdir())

    def test_negative_trace_top(self, tmp_path):
        # `[:k]` with k < 0 printed every activation but the last -k
        empty = tmp_path / "trace.jsonl"
        empty.write_text("")
        message = self.exit_message(["trace", "summarize", str(empty),
                                     "--top", "-2"])
        assert "--top" in message

    @pytest.mark.parametrize("argv, named", [
        (["soak", "-n", "1"], "-n/--sites"),
        (["soak", "--ops", "0"], "--ops"),
        (["analytic", "-n", "0"], "-n/--sites"),
        (["analytic", "-n", "1"], "-n/--sites"),
        (["analytic", "-n", "5", "-w", "2"], "-w/--write-rate"),
        (["analytic", "--payload", "-1"], "--payload"),
    ], ids=["soak-sites", "soak-ops", "analytic-sites", "analytic-one-site",
            "analytic-write-rate", "analytic-payload"])
    def test_model_and_soak_verbs(self, argv, named):
        assert named in self.exit_message(argv)

    def test_experiment_csv_checked_before_the_sweep(self, tmp_path,
                                                     monkeypatch):
        from repro.experiments import sweep

        def no_sweep(*_args, **_kwargs):
            raise AssertionError("the sweep ran before --csv was checked")

        monkeypatch.setattr(sweep, "run_cell", no_sweep)
        path = str(tmp_path / "missing" / "x.csv")
        message = self.exit_message(["experiment", "table4", "--csv", path])
        assert "--csv" in message and path in message

    @pytest.mark.parametrize("verb", [["experiment", "fig1"], ["reproduce"]])
    @pytest.mark.parametrize("flag", ["--ops", "--seeds"])
    def test_exhibit_verbs(self, tmp_path, monkeypatch, verb, flag):
        monkeypatch.chdir(tmp_path)
        assert flag in self.exit_message(verb + [flag, "0"])

    @pytest.mark.parametrize("argv, named", [
        (["serve", "-n", "0"], "-n/--nodes"),
        (["serve", "-n", "2", "-q", "0"], "-q/--variables"),
        (["serve", "--protocol", "optp", "--replication-factor", "1"],
         "--replication-factor"),
        (["run", "--protocol", "optp", "-n", "5", "-p", "2", "--ops", "5"],
         "-p/--replicas"),
    ], ids=["serve-no-nodes", "serve-no-vars", "serve-full-partial-p",
            "run-full-partial-p"])
    def test_inconsistent_cells(self, tmp_path, monkeypatch, argv, named):
        # each ended in a ValueError traceback, or (serve under optp)
        # silently ran at p = n; both substrates place by one rule
        monkeypatch.chdir(tmp_path)
        if argv[0] == "serve":
            # a cluster that does start stops itself after a second
            argv = argv + ["--dir", str(tmp_path / "run"), "--duration", "1"]
        message = self.exit_message(argv)
        assert named in message
        if "optp" in argv:
            assert "requires full replication" in message
        assert not any(tmp_path.iterdir())  # nothing started

    @pytest.mark.parametrize("verb", ["serve", "loadgen"])
    @pytest.mark.parametrize("text", [None, "{not json", '{"nodes": 3}'],
                             ids=["missing", "not-json", "ill-shaped"])
    def test_topology_file(self, tmp_path, verb, text):
        path = tmp_path / "topology.json"
        if text is not None:
            path.write_text(text)
        argv = [verb, "--topology", str(path)]
        if verb == "serve":
            argv += ["--dir", str(tmp_path / "run")]
        message = self.exit_message(argv)
        assert "--topology" in message and str(path) in message
        assert not (tmp_path / "run").exists()  # nothing started


#: a topology file as versions that let a topology choose its placement
#: wrote it: a ``"placement"`` key and a placement ``"seed"``
OLD_TOPOLOGY = {
    "protocol": "opt-track", "n_vars": 6, "replication_factor": 2,
    "placement": "round-robin", "seed": 3, "history_dir": None,
    "nodes": [{"site": i, "host": "127.0.0.1", "peer_port": 7400 + i,
               "http_port": 7403 + i} for i in range(3)],
}


class TestRetiredPlacements:
    """Round-robin is the one placement.  A saved topology or run that
    names another is refused with one line naming it, since checking it
    against round-robin replica sets would judge the wrong run; one that
    names round-robin, or no placement, still loads and ignores its
    ``"seed"``."""

    exit_message = staticmethod(TestSavedFileErrors.exit_message)

    @staticmethod
    def write_topology(tmp_path, **changes):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps({**OLD_TOPOLOGY, **changes}))
        return path

    @staticmethod
    def run_trace(tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["run", "--trace", str(out), "-n", "4", "-q", "20",
                     "--ops", "25"]) == 0
        capsys.readouterr()
        config = json.loads((out / "config.json").read_text())
        assert "placement" not in config
        return out, config

    @pytest.mark.parametrize("placement", ["random", "hash"])
    def test_load_topology_refuses_a_retired_placement(self, tmp_path,
                                                       placement):
        path = self.write_topology(tmp_path, placement=placement)
        with pytest.raises(ValueError, match=repr(placement)):
            load_topology(path)

    def test_loadgen_exits_on_a_retired_placement(self, tmp_path):
        path = self.write_topology(tmp_path, placement="random")
        message = self.exit_message(["loadgen", "--topology", str(path)])
        assert "--topology" in message and "'random'" in message

    def test_an_older_round_robin_topology_still_loads(self, tmp_path):
        topology = load_topology(self.write_topology(tmp_path))
        assert "placement" not in topology.as_dict()
        assert "seed" not in topology.as_dict()
        want = build_placement(default_topology(3, n_vars=6,
                                                replication_factor=2))
        got = build_placement(topology)
        assert ([got.replicas(v) for v in range(6)]
                == [want.replicas(v) for v in range(6)])

    def test_verify_trace_refuses_a_retired_placement(self, tmp_path, capsys):
        out, config = self.run_trace(tmp_path, capsys)
        config["placement"] = "hash"
        (out / "config.json").write_text(json.dumps(config))
        assert "'hash'" in self.exit_message(["verify-trace", str(out)])

    def test_verify_trace_reads_an_older_round_robin_config(self, tmp_path,
                                                            capsys):
        out, config = self.run_trace(tmp_path, capsys)
        config["placement"] = "round-robin"  # beside the run's "seed"
        (out / "config.json").write_text(json.dumps(config))
        assert main(["verify-trace", str(out)]) == 0
        assert "causal consistency OK" in capsys.readouterr().out


class TestSoakCommand:
    def test_soak_parser_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.protocols is None
        assert args.seeds == "1,2,3"

    def test_unknown_soak_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["soak", "--protocols", "bogus", "--seeds", "1"])

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            main(["soak", "--seeds", "x,y"])

    def test_soak_single_cell(self, tmp_path, capsys):
        rc = main(["soak", "--protocols", "optp", "--seeds", "1",
                   "--ops", "25", "--no-determinism", "--no-rto-compare",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "soak: PASS" in out
        assert (tmp_path / "soak_report.json").exists()


def documented_commands():
    """``(where, argv)`` of every ``repro …`` command in a fenced block of
    README.md and docs/*.md; a command with a ``...`` placeholder is
    skipped."""
    for path in [REPO_ROOT / "README.md",
                 *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        fenced, pending = False, ""
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            if not fenced:
                continue
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            line, pending = pending + line, ""
            try:
                words = shlex.split(line, comments=True)
            except ValueError:
                continue  # not a shell line
            command: list = []
            for word in words + [";"]:
                if word not in ("&&", "||", "|", ";", "&"):
                    command.append(word)
                    continue
                while command and "=" in command[0]:
                    del command[0]  # VAR=value prefixes
                if command[:1] == ["repro"]:
                    argv = command[1:]
                elif (command[:1] in (["python"], ["python3"])
                      and "-m" in command
                      and command[command.index("-m") + 1:][:1] == ["repro"]):
                    argv = command[command.index("-m") + 2:]
                else:
                    argv = None
                if argv is not None and not any("..." in w for w in argv):
                    yield f"{path.name}:{lineno}", argv
                command = []


def test_documented_commands_parse():
    # the docs drift from the CLI silently otherwise
    seen, broken = [], []
    for where, argv in documented_commands():
        seen.append(argv[0])
        try:
            args, rest = build_parser().parse_known_args(argv)
            if args.command == "check":
                build_check_parser().parse_args(rest)
            elif rest:
                broken.append(f"{where}: repro {shlex.join(argv)}")
        except SystemExit:
            broken.append(f"{where}: repro {shlex.join(argv)}")
    assert broken == []
    assert {"run", "check", "trace", "metrics"} <= set(seen)


def test_named_verbs_are_subcommands():
    # a verb the docs or the CLI docstring name must exist, and the
    # docstring must list every public one
    import repro.cli

    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    verbs = set(action.choices)
    named = re.compile(r"(?<!from )\brepro ([a-z_][\w-]*)")
    unknown = [f"{path.name}: repro {m.group(1)}"
               for path in [REPO_ROOT / "README.md",
                            *sorted((REPO_ROOT / "docs").glob("*.md"))]
               for m in named.finditer(path.read_text())
               if m.group(1) not in verbs]
    doc = repro.cli.__doc__
    listed = {*re.findall(r"``([a-z][a-z-]*)``", doc),
              *(m.group(1) for m in named.finditer(doc))} - {"repro"}  # the program
    assert unknown == []
    assert listed <= verbs
    assert {v for v in verbs if not v.startswith("_")} <= listed
