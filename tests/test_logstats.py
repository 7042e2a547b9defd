"""Tests for the Opt-Track log introspection module and trace CLI."""

import json

import pytest

from repro import SimulationConfig, run_simulation
from repro.analysis.logstats import LogSnapshot, format_log_report, snapshot_logs
from repro.cli import main
from repro.experiments.runner import build_placement


def run_opt_track(**kw):
    kw.setdefault("ops_per_process", 40)
    kw.setdefault("n_sites", 6)
    kw.setdefault("seed", 0)
    return run_simulation(SimulationConfig(protocol="opt-track", **kw))


class TestSnapshot:
    def test_counts_match_protocol_state(self):
        result = run_opt_track()
        snap = snapshot_logs(result.protocols)
        assert snap.n_sites == 6
        assert snap.entries_per_site == tuple(len(p.log) for p in result.protocols)
        assert snap.max_entries >= snap.mean_entries

    def test_histogram_consistent(self):
        result = run_opt_track()
        snap = snapshot_logs(result.protocols)
        assert sum(snap.dest_list_histogram.values()) == sum(snap.entries_per_site)
        assert sum(snap.entries_per_writer.values()) == sum(snap.entries_per_site)

    def test_empty_marker_fraction_in_range(self):
        snap = snapshot_logs(run_opt_track().protocols)
        assert 0.0 <= snap.empty_marker_fraction <= 1.0

    def test_rejects_logless_protocols(self):
        result = run_simulation(SimulationConfig(
            protocol="optp", n_sites=3, ops_per_process=10, seed=0))
        with pytest.raises(TypeError, match="inspectable log"):
            snapshot_logs(result.protocols)

    def test_report_formatting(self):
        snap = snapshot_logs(run_opt_track().protocols)
        text = format_log_report(snap)
        assert "entries/site" in text
        assert "∅-markers" in text

    def test_empty_snapshot(self):
        snap = LogSnapshot(
            n_sites=0, entries_per_site=(),
            dest_list_histogram={}, entries_per_writer={}, staleness=(),
        )
        assert snap.mean_entries == 0.0
        assert snap.mean_dests == 0.0
        assert "(empty)" in format_log_report(snap)


class TestTraceCli:
    def test_trace_then_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t"
        rc = main(["run", "--trace", str(out), "-n", "4", "-q", "20",
                   "--ops", "25"])
        assert rc == 0
        assert (out / "workload.json").exists()
        assert (out / "history.jsonl").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["protocol"] == "opt-track"
        capsys.readouterr()
        rc = main(["verify-trace", str(out)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--protocol", "optp", "--churn-joins", "1"],
        ["--protocol", "opt-track", "-p", "2", "--churn-joins", "1",
         "--churn-leaves", "1"],
    ], ids=["optp-join", "opt-track-p2-join-leave"])
    def test_verify_trace_rebuilds_the_configured_placement(
            self, tmp_path, capsys, monkeypatch, flags):
        # config.json once recorded the placement's post-churn factor: 6
        # for the full-replication join (verify-trace then refused it as
        # outside [1, 5]) and 1 for p = 2 under a join and a leave
        import repro.cli as cli

        argv = ["-n", "5", "-q", "20", "--ops", "30", "--drop-rate", "0.05",
                *flags]
        out = tmp_path / "t"
        assert main(["run", "--trace", str(out), *argv]) == 0
        rebuilt = []
        check = cli.check_causal_consistency
        monkeypatch.setattr(cli, "check_causal_consistency",
                            lambda history, placement: (
                                rebuilt.append(placement)
                                or check(history, placement)))
        capsys.readouterr()
        assert main(["verify-trace", str(out)]) == 0
        assert "causal consistency OK" in capsys.readouterr().out
        want = build_placement(
            cli._config_from_args(cli.build_parser().parse_args(["run", *argv])))
        (got,) = rebuilt
        assert type(got) is type(want)
        assert got.replication_factor == want.replication_factor
        assert ([got.replicas(v) for v in range(got.n_vars)]
                == [want.replicas(v) for v in range(want.n_vars)])

    def test_trace_logstats_printed_for_opt_track(self, tmp_path, capsys):
        rc = main(["run", "--trace", str(tmp_path / "t"), "-n", "6", "-q", "20",
                   "--ops", "20"])
        assert rc == 0
        assert "log structure" in capsys.readouterr().out

    def test_verify_trace_flags_corruption(self, tmp_path, capsys):
        out = tmp_path / "t"
        main(["run", "--trace", str(out), "-n", "4", "-q", "20", "--ops", "25",
              "--protocol", "optp"])
        capsys.readouterr()
        # corrupt the history: make the first read return a future write
        lines = (out / "history.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        writes = [e for e in events if e["kind"] == "write_op"]
        reads = [e for e in events if e["kind"] == "read_op"]
        assert writes and reads
        # pick a write by some site and force an early read of that var
        # at the same site to have "returned" a later overwrite
        target = writes[-1]
        victim = next(e for e in events if e["kind"] == "read_op")
        victim["var"] = target["var"]
        victim["write_id"] = target["write_id"]
        victim["value"] = target["value"]
        # then append a regression read of the FIRST write to that var
        first = next(w for w in writes if w["var"] == target["var"])
        if first["write_id"] != target["write_id"]:
            regression = dict(victim)
            regression["write_id"] = first["write_id"]
            events.append(regression)
            (out / "history.jsonl").write_text(
                "\n".join(json.dumps(e) for e in events) + "\n"
            )
            rc = main(["verify-trace", str(out)])
            if rc == 1:
                assert "VIOLATED" in capsys.readouterr().out
