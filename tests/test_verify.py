"""Tests for the causality graph and the causal-consistency checker.

The positive direction (real protocol runs pass) is covered by the
integration tests; here the focus is the negative direction — the
checker must *detect* hand-constructed violations of every kind it
claims to check.  A checker that cannot fail is not evidence.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import SimulationConfig, run_simulation
from repro.memory.replication import RoundRobinPlacement
from repro.memory.store import WriteId
from repro.sim.faults import FaultPlan
from repro.sim.network import AdversarialLatency
from repro.cli import main
from repro.verify.causal_checker import LISTED, check_causal_consistency
from repro.verify.graph import causality_graph
from repro.verify.history import (
    EventKind,
    EventRecord,
    HistoryRecorder,
    decode_events,
)
from repro.verify.sessions import (
    check_all_session_guarantees,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
)

PROTOCOLS = ["full-track", "opt-track", "opt-track-crp", "optp", "hb-track"]


def w(h, t, site, var, value, clock):
    h.record_write_op(time=t, site=site, var=var, value=value,
                      write_id=WriteId(site, clock))
    return WriteId(site, clock)


def r(h, t, site, var, value, wid):
    h.record_read_op(time=t, site=site, var=var, value=value, write_id=wid)


def ap(h, t, site, var, wid):
    h.record_apply(time=t, site=site, var=var, write_id=wid)


class TestGraph:
    def test_program_order_edges(self):
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        r(h, 2, 0, 1, None, None)
        g = causality_graph(h)
        assert g.precedes(0, 1) and not g.precedes(1, 0)
        assert g.past[1].tolist() == [1]  # the read's past: site 0's first op

    def test_read_from_edges(self):
        h = HistoryRecorder()
        wid = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", wid)
        g = causality_graph(h)
        assert g.precedes(0, 1) and not g.precedes(1, 0)
        assert g.past[1].tolist() == [1, 0]

    def test_unknown_write_id_rejected(self):
        h = HistoryRecorder()
        r(h, 1, 0, 0, "a", WriteId(5, 5))
        with pytest.raises(ValueError, match="unknown write"):
            causality_graph(h).acyclic()

    def test_cross_variable_rf_rejected(self):
        h = HistoryRecorder()
        wid = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 3, "a", wid)  # reads var 3, write was to var 0
        with pytest.raises(ValueError, match="var"):
            causality_graph(h).acyclic()

    def test_ancestry_is_a_prefix_of_each_site(self):
        # w(0,1) -> r at site 1 -> w(1,1) -> r at site 2: the last read's
        # past is all of sites 0 and 1, and none of its own site
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w(h, 2, 0, 1, "b", 2)
        r(h, 3, 1, 0, "a", w1)
        w2 = w(h, 4, 1, 2, "c", 1)
        r(h, 5, 2, 2, "c", w2)
        g = causality_graph(h)
        assert g.past.tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 0],
                                   [1, 1, 0], [1, 2, 0]]
        assert not g.precedes(1, 4)  # w(0,2) is concurrent with the read


class TestRuntimeImports:
    def test_networkx_is_never_imported(self):
        # networkx is a test-only oracle: a checked run, the session
        # guarantees and the convergence analysis run without it
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, repro\n"
            "from repro.experiments.runner import SimulationConfig, run_simulation\n"
            "from repro.verify import (check_all_session_guarantees,\n"
            "    check_causal_consistency, check_convergence)\n"
            "cfg = SimulationConfig(protocol='optp', n_sites=4, n_vars=3,\n"
            "    write_rate=0.8, ops_per_process=20, seed=1, record_history=True)\n"
            "res = run_simulation(cfg)\n"
            "check_causal_consistency(res.history, res.placement).raise_if_violated()\n"
            "assert not any(check_all_session_guarantees(res.history).values())\n"
            "assert check_convergence(res.protocols, res.history).ok\n"
            "print('networkx' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}).stdout
        assert out.strip() == "False"


class TestCheckerPasses:
    def test_trivially_consistent(self):
        h = HistoryRecorder()
        wid = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", wid)
        report = check_causal_consistency(h)
        assert report.ok
        assert report.n_writes == 1 and report.n_reads == 1

    def test_bottom_read_before_any_write_ok(self):
        h = HistoryRecorder()
        r(h, 1, 1, 0, None, None)
        w(h, 2, 0, 0, "a", 1)
        assert check_causal_consistency(h).ok

    def test_concurrent_overwrite_not_a_violation(self):
        # two *concurrent* writes to x: reading either is legal
        h = HistoryRecorder()
        wa = w(h, 1, 0, 0, "a", 1)
        wb = w(h, 1, 1, 0, "b", 1)
        r(h, 2, 2, 0, "a", wa)
        r(h, 3, 3, 0, "b", wb)
        assert check_causal_consistency(h).ok

    def test_raise_if_violated_on_clean(self):
        h = HistoryRecorder()
        w(h, 1, 0, 0, "a", 1)
        check_causal_consistency(h).raise_if_violated()


class TestCheckerDetectsStaleReads:
    def test_reading_causally_overwritten_value(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 0, "b", 2)   # same writer: w1 ->po w2
        r(h, 3, 1, 0, "b", w2)       # site 1 saw the newer value...
        r(h, 4, 1, 0, "a", w1)       # ...then regressed to the old one
        report = check_causal_consistency(h)
        assert not report.ok
        assert any(v.kind == "stale-read" for v in report.violations)

    def test_bottom_read_with_write_in_causal_past(self):
        h = HistoryRecorder()
        wx = w(h, 1, 0, 0, "a", 1)
        wy = w(h, 2, 0, 1, "b", 2)
        r(h, 3, 1, 1, "b", wy)      # site 1 depends on wy, hence on wx
        r(h, 4, 1, 0, None, None)   # but reads x = bottom
        report = check_causal_consistency(h)
        assert not report.ok
        assert any(v.kind == "stale-bottom-read" for v in report.violations)

    def test_transitive_stale_read_via_third_site(self):
        # w1 -> w2 via a read at another site, then a stale read of w1
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        r(h, 2, 1, 0, "a", w1)
        w2 = w(h, 3, 1, 0, "c", 1)   # causally after w1 through the read
        r(h, 4, 2, 0, "c", w2)
        r(h, 5, 2, 0, "a", w1)       # regression
        report = check_causal_consistency(h)
        assert any(v.kind == "stale-read" for v in report.violations)

    def test_raise_if_violated_raises(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 0, "b", 2)
        r(h, 3, 1, 0, "b", w2)
        r(h, 4, 1, 0, "a", w1)
        with pytest.raises(AssertionError, match="violation"):
            check_causal_consistency(h).raise_if_violated()


class TestCheckerDetectsCycles:
    def test_read_from_own_program_future(self):
        h = HistoryRecorder()
        # site 0 reads the value of a write it only performs afterwards
        r(h, 1, 0, 0, "a", WriteId(0, 1))
        w(h, 2, 0, 0, "a", 1)
        report = check_causal_consistency(h)
        assert not report.ok
        assert report.violations[0].kind == "cyclic-causality"


class TestCheckerApplyOrder:
    def setup_method(self):
        self.placement = RoundRobinPlacement(3, 4, 3)

    def test_correct_apply_order_passes(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 1, "b", 2)
        for site in range(3):
            ap(h, 3, site, 0, w1)
            ap(h, 4, site, 1, w2)
        assert check_causal_consistency(h, self.placement).ok

    def test_inverted_apply_order_detected(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 1, "b", 2)
        ap(h, 3, 1, 1, w2)  # site 1 applies the later write first
        ap(h, 4, 1, 0, w1)
        report = check_causal_consistency(h, self.placement)
        assert any(v.kind == "apply-order" for v in report.violations)

    def test_missing_apply_detected(self):
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        w2 = w(h, 2, 0, 1, "b", 2)
        ap(h, 3, 1, 1, w2)  # applied the successor, never the predecessor
        report = check_causal_consistency(h, self.placement)
        assert any(v.kind == "missing-apply" for v in report.violations)

    def test_predecessor_not_destined_is_fine(self):
        # under partial replication, a predecessor not replicated at the
        # site imposes no apply obligation there
        placement = RoundRobinPlacement(4, 4, 1)  # var v lives only at site v
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)   # var 0 -> site 0 only
        w2 = w(h, 2, 0, 1, "b", 2)   # var 1 -> site 1 only
        ap(h, 3, 0, 0, w1)
        ap(h, 4, 1, 1, w2)
        assert check_causal_consistency(h, placement).ok

    def test_phantom_apply_detected(self):
        h = HistoryRecorder()
        ap(h, 1, 0, 0, WriteId(2, 9))  # applying a write nobody performed
        report = check_causal_consistency(h, self.placement)
        assert any(v.kind == "phantom-apply" for v in report.violations)

    def test_apply_without_a_write_id_is_a_typed_violation(self):
        # its phantom used to be named ("w", *None): a TypeError
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)  # var 0: destined to sites 0 and 1
        ap(h, 2, 0, 0, w1)
        h.extend([EventRecord(kind=EventKind.APPLY, time=3.0, site=1)])
        report = check_causal_consistency(h, RoundRobinPlacement(4, 10, 2))
        assert report.totals == {"unnamed-apply": 1}
        assert [str(v) for v in report.violations] == [
            "[unnamed-apply] site 1 applied a write without an id at time 3.0"]

    def test_session_checks_list_an_apply_without_a_write_id(self):
        # only monotonic writes reads every apply's write id: it lists this one
        h = HistoryRecorder()
        w1 = w(h, 1, 0, 0, "a", 1)
        ap(h, 2, 0, 0, w1)
        h.extend([EventRecord(kind=EventKind.APPLY, time=3.0, site=1)])
        unnamed = ["site 1 applied a write without an id at time 3.0"]
        assert check_monotonic_writes(h) == unnamed
        assert check_read_your_writes(h) == check_monotonic_reads(h) == []
        assert check_writes_follow_reads(h) == []
        assert check_all_session_guarantees(h) == {
            "read_your_writes": [], "monotonic_reads": [],
            "monotonic_writes": unnamed, "writes_follow_reads": []}


CHAOS = FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02)


class TestHistoryKinds:
    """A history holds what the checkers read: operations and applies.
    Per-message events are the tracer's."""

    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_checked_run_records_operations_and_applies_only(
            self, protocol, chaos):
        res = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=5, n_vars=8, ops_per_process=25,
            write_rate=0.6, seed=3, record_history=True,
            latency=AdversarialLatency(1.0, 1000.0),
            fault_plan=CHAOS if chaos else None, fault_seed=3))
        kinds = {e.kind for e in res.history.events}
        assert kinds == {EventKind.WRITE_OP, EventKind.READ_OP, EventKind.APPLY}
        report = check_causal_consistency(res.history, res.placement)
        assert report.ok
        assert report.n_reads > 0 and report.n_applies > report.n_writes
        assert len(res.history) == (report.n_writes + report.n_reads
                                    + report.n_applies)

    def test_a_history_with_per_message_events_loads_the_kept_ones(self):
        res = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=5, n_vars=8, ops_per_process=25,
            write_rate=0.6, seed=3, record_history=True,
            latency=AdversarialLatency(1.0, 1000.0)))
        # the JSONL an older recorder wrote: a "peer" key on every line,
        # a send per SM copy, a fetch and a remote_return per remote read
        lines = []
        for e in res.history.events:
            row = {**e.as_dict(), "peer": None}
            if e.kind is EventKind.READ_OP and e.detail == "remote":
                lines.append({"kind": "fetch", "time": e.time, "site": e.site,
                              "var": e.var, "peer": 0})
                lines.append({"kind": "remote_return", "time": e.time,
                              "site": 0, "var": e.var, "peer": e.site})
            lines.append(row)
            if e.kind is EventKind.WRITE_OP:
                lines.append({"kind": "send", "time": e.time, "site": e.site,
                              "peer": (e.site + 1) % 5,
                              "detail": "OptTrackSM"})
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in lines)
        assert '"fetch"' in text and '"remote_return"' in text
        old = HistoryRecorder()
        old.extend(decode_events(text))
        assert old.events == res.history.events
        assert (check_causal_consistency(old, res.placement)
                == check_causal_consistency(res.history, res.placement))


def paper_scale_run(protocol, **kwargs):
    """n = 20, q = 100, 300 ops/process under adversarial latency and
    5 % drops: ~6 000 operations, ~18 000 applies at p = 6 and ~61 000
    at full replication."""
    return run_simulation(SimulationConfig(
        protocol=protocol, n_sites=20, n_vars=100, ops_per_process=300,
        seed=0, record_history=True, latency=AdversarialLatency(),
        fault_plan=FaultPlan.uniform(drop_rate=0.05), fault_seed=0, **kwargs))


class TestApplyOrderAtScale:
    def test_checking_a_paper_scale_run_takes_under_two_seconds(self):
        # Condition 3 is a few numpy passes per (apply site, writer).
        res = paper_scale_run("opt-track", replication_factor=6)
        start = time.perf_counter()
        report = check_causal_consistency(res.history, res.placement)
        elapsed = time.perf_counter() - start
        assert report.ok and report.n_applies > 15_000
        assert elapsed < 2.0, f"checker took {elapsed:.2f} s"

    def test_session_guarantees_at_full_replication_take_under_a_second(self):
        # writes-follow-reads compares running maxima of last applies,
        # instead of testing every (read source, later write) pair at
        # every site
        res = paper_scale_run("opt-track-crp")
        start = time.perf_counter()
        report = check_all_session_guarantees(res.history)
        elapsed = time.perf_counter() - start
        assert not any(report.values())
        assert len(res.history.of_kind(EventKind.APPLY)) > 50_000
        assert elapsed < 1.0, f"session guarantees took {elapsed:.2f} s"


def reverse_site_0_applies(history):
    """A stand-in for a broken gate: site 0 applies its updates in
    reverse order."""
    events = history.events
    at = [i for i, e in enumerate(events)
          if e.kind is EventKind.APPLY and e.site == 0]
    for i, event in zip(at, [events[j] for j in reversed(at)]):
        events[i] = event


class TestPaperShapeRegression:
    """The oracle says "no" at the paper's shape: n = 20, 300 ops/process,
    w = 0.8.  The counts are the ones a checker that enumerated every
    violation found on the same reversed histories."""

    @pytest.mark.parametrize("protocol, count", [
        ("opt-track", 798_431), ("opt-track-crp", 9_383_277)])
    def test_a_reversed_site_is_counted_exactly_under_three_seconds(
            self, protocol, count):
        res = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=20, ops_per_process=300,
            write_rate=0.8, seed=1, record_history=True))
        assert check_causal_consistency(res.history, res.placement).ok
        reverse_site_0_applies(res.history)
        start = time.perf_counter()
        report = check_causal_consistency(res.history, res.placement)
        elapsed = time.perf_counter() - start
        assert report.totals == {"apply-order": count}
        assert [v.kind for v in report.violations] == ["apply-order"] * LISTED
        assert report.render().splitlines()[0] == (
            f"{count} causal consistency violation(s) (apply-order {count}), "
            f"{LISTED} listed:")
        assert elapsed < 3.0, f"checker took {elapsed:.2f} s"

    @pytest.mark.parametrize("protocol", ["opt-track", "opt-track-crp"])
    def test_monotonic_writes_matches_the_per_apply_loop(self, protocol):
        from .test_property_checker import reference_monotonic_writes

        res = run_simulation(SimulationConfig(
            protocol=protocol, n_sites=20, ops_per_process=300,
            write_rate=0.8, seed=1, record_history=True))
        reverse_site_0_applies(res.history)
        found = check_monotonic_writes(res.history)
        assert found and found == reference_monotonic_writes(res.history)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved") / "run"
    assert main(["run", "--trace", str(out), "-n", "4", "-q", "20",
                 "--ops", "25", "--protocol", "optp"]) == 0
    return out


def _first(rows, kind):
    return next(row for row in rows if row["kind"] == kind)


def _corrupted_copy(saved_run, tmp_path, corrupt):
    """A copy of ``saved_run`` whose history rows ``corrupt`` edited."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("config.json", "history.jsonl"):
        (out / name).write_text((saved_run / name).read_text())
    rows = [json.loads(line) for line in
            (out / "history.jsonl").read_text().splitlines()]
    corrupt(rows)
    (out / "history.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows))
    return out


def _unknown_source(rows):
    _first(rows, "read_op")["write_id"] = [3, 999]


def _shared_id(rows):
    writes = [row for row in rows if row["kind"] == "write_op"]
    writes[-1]["write_id"] = writes[0]["write_id"]


def _no_id(rows):
    _first(rows, "write_op")["write_id"] = None


class TestMalformedHistories:
    """Order sanity reports a history ->co is undefined on; the checker
    and ``repro verify-trace`` list it and exit 1 instead of raising."""

    @pytest.mark.parametrize("corrupt, kind", [
        (_unknown_source, "unknown-write"),
        (_shared_id, "duplicate-write"),
        (_no_id, "unnamed-write"),
    ], ids=["unknown-write", "duplicate-write", "unnamed-write"])
    def test_verify_trace_reports_it(self, saved_run, tmp_path, capsys,
                                     corrupt, kind):
        out = _corrupted_copy(saved_run, tmp_path, corrupt)
        capsys.readouterr()
        assert main(["verify-trace", str(out)]) == 1
        text = capsys.readouterr().out
        assert "causal consistency VIOLATED" in text
        assert f"  [{kind}] " in text

    @pytest.mark.parametrize("kind, key, value", [
        ("write_op", "write_id", [1]),
        ("apply", "write_id", [0, 0]),
        ("read_op", "time", None),
        ("read_op", "time", "soon"),
        ("apply", "site", 1.5),
        ("write_op", "kind", "erase"),
        ("write_op", "dests", [0, "1"]),
        ("apply", "write_id", None),
    ], ids=["short-write-id", "clock-zero", "no-time",
            "time-not-a-number", "site-not-an-int", "unknown-kind",
            "dests-not-sites", "apply-without-write-id"])
    def test_verify_trace_names_a_malformed_line(self, saved_run, tmp_path,
                                                 kind, key, value):
        # the short id used to load as a 1-tuple and report a bogus
        # phantom apply; the others raised a bare KeyError or TypeError
        line = []

        def corrupt(rows):
            at = next(i for i, row in enumerate(rows) if row["kind"] == kind)
            rows[at][key] = value
            line.append(at + 1)

        out = _corrupted_copy(saved_run, tmp_path, corrupt)
        with pytest.raises(SystemExit) as exit_:  # a message: status 1
            main(["verify-trace", str(out)])
        message = exit_.value.code
        assert isinstance(message, str) and "\n" not in message
        assert f": ValueError: line {line[0]}: " in message
