"""Tests for the observability subsystem (``repro.obs``).

Covers the three contracts the tracer must keep:

* **zero overhead** — a ``tracer=None`` run is byte-identical to the
  seed code path, and a traced run produces *identical protocol
  metrics* to an untraced one (the tracer is passive);
* **determinism** — two traced runs of the same config export
  byte-identical JSONL trace files;
* **causality** — parent links and ``waited_on`` lists reconstruct the
  message chain behind any buffered activation.

Plus the reservoir-percentile extension of ``RunningStat`` and the
Chrome ``trace_event`` export (golden-file schema check).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import SimulationConfig, run_simulation
from repro.metrics.stats import RESERVOIR_CAPACITY, RunningStat, summarize
from repro.obs import (
    TraceIndex,
    Tracer,
    causal_chain,
    diff_traces,
    format_chain,
    load_trace,
    slowest_activations,
    summarize_trace,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from repro.sim.faults import ChannelFaults, FaultPlan
from repro.sim.network import AdversarialLatency, ConstantLatency

ALL_PROTOCOLS = ("full-track", "opt-track", "opt-track-crp", "optp")

GOLDEN_DIR = Path(__file__).parent / "golden"


def tiny_cfg(protocol="opt-track", **overrides):
    base = dict(protocol=protocol, n_sites=4, n_vars=12,
                ops_per_process=30, seed=3)
    base.update(overrides)
    return SimulationConfig(**base)


def buffered_cfg():
    """Adversarial latency + tight op gaps: some SMs must buffer."""
    return SimulationConfig(
        protocol="opt-track", n_sites=5, n_vars=20, ops_per_process=60,
        gap_range_ms=(1.0, 40.0), latency=AdversarialLatency(), seed=7,
    )


def golden_cfg():
    """Fixed tiny run backing the Chrome-export golden file."""
    return SimulationConfig(
        protocol="opt-track", n_sites=3, n_vars=6, ops_per_process=8,
        latency=ConstantLatency(5.0), seed=1,
    )


# ----------------------------------------------------------------------
# RunningStat percentiles (reservoir sampling)
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_exact_below_capacity(self):
        rs = RunningStat()
        rs.extend(range(101))  # 0..100
        assert rs.p50 == pytest.approx(50.0)
        assert rs.p95 == pytest.approx(95.0)
        assert rs.p99 == pytest.approx(99.0)
        assert rs.percentile(0) == 0.0 and rs.percentile(100) == 100.0

    def test_empty_stream_is_zero(self):
        rs = RunningStat()
        assert rs.p50 == 0.0 and rs.p95 == 0.0 and rs.p99 == 0.0
        assert rs.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_overflow_is_deterministic_and_sane(self):
        a, b = RunningStat(), RunningStat()
        n = 4 * RESERVOIR_CAPACITY
        for i in range(n):
            x = float(i % 1000)
            a.add(x)
            b.add(x)
        # identical streams -> identical reservoirs -> identical tails
        assert a.quantiles() == b.quantiles()
        assert len(a._reservoir) == RESERVOIR_CAPACITY
        # the estimate must land in the right region of a uniform stream
        assert 400 <= a.p50 <= 600
        assert 900 <= a.p95 <= 1000

    def test_merge_combines_reservoirs(self):
        a, b = RunningStat(), RunningStat()
        a.extend([1.0] * 10)
        b.extend([100.0] * 10)
        a.merge(b)
        assert a.count == 20
        assert a.p50 in (1.0, 100.0) or 1.0 < a.p50 < 100.0
        assert a.p99 == pytest.approx(100.0)

    def test_summarize_reports_p99(self):
        s = summarize(range(1, 1001))
        assert s.p50 == pytest.approx(500.5)
        assert s.p99 == pytest.approx(990.01)
        assert summarize([]).p99 == 0.0


# ----------------------------------------------------------------------
# zero-overhead contract
# ----------------------------------------------------------------------
class TestZeroOverhead:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_metrics_identical_with_and_without_tracer(self, protocol):
        cfg = tiny_cfg(protocol)
        untraced = run_simulation(cfg)
        traced = run_simulation(cfg, tracer=Tracer())
        assert traced.collector.as_dict() == untraced.collector.as_dict()
        assert traced.sim_time_ms == untraced.sim_time_ms
        assert traced.total_sim_events == untraced.total_sim_events

    def test_metrics_identical_under_chaos(self):
        plan = FaultPlan.build(default=ChannelFaults(drop_rate=0.1))
        cfg = tiny_cfg("optp", fault_plan=plan)
        untraced = run_simulation(cfg)
        traced = run_simulation(cfg, tracer=Tracer())
        assert traced.collector.as_dict() == untraced.collector.as_dict()


# ----------------------------------------------------------------------
# determinism of the trace itself
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    def test_two_traced_runs_export_identical_jsonl(self, tmp_path):
        paths = []
        for i in range(2):
            tracer = Tracer()
            run_simulation(buffered_cfg(), tracer=tracer)
            paths.append(write_jsonl(tracer, tmp_path / f"t{i}.jsonl"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        run_simulation(tiny_cfg(), tracer=tracer)
        trace = tracer.to_trace()
        loaded = load_trace(write_jsonl(trace, tmp_path / "t.jsonl"))
        assert loaded.meta["protocol"] == "opt-track"
        assert len(loaded.events) == len(trace.events)
        assert [e.to_json() for e in loaded.events] == [
            e.to_json() for e in trace.events
        ]

    def test_version_1_file_with_timeseries_trailer_loads(self, tmp_path):
        # format 1 ended with a bucketed time-series row; it is skipped
        path = tmp_path / "v1.jsonl"
        path.write_text("\n".join([
            '{"n_sites":2,"protocol":"opt-track","type":"meta","version":1}',
            '{"id":0,"kind":"op.write","site":0,"ts":1.0,'
            '"attrs":{"end_ts":1.0,"index":0,"var":3},"type":"event"}',
            '{"id":1,"kind":"msg.send","parent":0,"site":0,"ts":1.0,'
            '"attrs":{"dst":1,"msg":"SM","size":40,"src":0},"type":"event"}',
            '{"id":2,"kind":"msg.deliver","parent":1,"site":1,"ts":6.0,'
            '"attrs":{"latency_ms":5.0,"src":0},"type":"event"}',
            '{"id":3,"kind":"sm.activate","parent":2,"site":1,"ts":6.0,'
            '"attrs":{"arrived":6.0,"var":3,"visibility_ms":5.0,'
            '"waited_ms":0.0,"clock":1,"writer":0},"type":"event"}',
            '{"bucket_ms":100.0,"series":{"net.in_flight":[{"count":2,'
            '"max":1.0,"mean":0.5,"min":0.0,"t":0.0,"total":1.0}]},'
            '"type":"timeseries"}',
        ]) + "\n")
        trace = load_trace(path)
        assert trace.meta == {"n_sites": 2, "protocol": "opt-track"}
        assert [ev.kind for ev in trace.events] == [
            "op.write", "msg.send", "msg.deliver", "sm.activate"]
        summary = summarize_trace(trace)
        assert "1 applies" in summary
        counters = [e for e in to_chrome(trace)["traceEvents"]
                    if e["ph"] == "C"]
        assert [c["args"]["messages"] for c in counters] == [0.5]


# ----------------------------------------------------------------------
# causal structure
# ----------------------------------------------------------------------
class TestCausalLinks:
    @pytest.fixture(scope="class")
    def buffered_trace(self):
        tracer = Tracer()
        run_simulation(buffered_cfg(), tracer=tracer)
        return tracer.to_trace()

    def test_every_parent_exists_and_precedes(self, buffered_trace):
        by_id = buffered_trace.by_id()
        for ev in buffered_trace.events:
            if ev.parent is not None:
                assert ev.parent in by_id
                assert by_id[ev.parent].ts <= ev.ts

    def test_deliver_parents_are_sends(self, buffered_trace):
        by_id = buffered_trace.by_id()
        delivers = buffered_trace.of_kind("msg.deliver")
        assert delivers
        for ev in delivers:
            assert by_id[ev.parent].kind == "msg.send"
            assert ev.attrs["latency_ms"] >= 0

    def test_buffered_activation_has_waited_on_sends(self, buffered_trace):
        by_id = buffered_trace.by_id()
        buffered = [ev for ev in buffered_trace.of_kind("sm.activate")
                    if ev.attrs.get("waited_ms", 0) > 0]
        assert buffered, "adversarial config must buffer at least one SM"
        for ev in buffered:
            assert ev.attrs["waited_on"], "buffered SM waited on something"
            for send_id in ev.attrs["waited_on"]:
                assert by_id[send_id].kind == "msg.send"

    def test_slowest_activation_chain_renders(self, buffered_trace):
        index = TraceIndex(buffered_trace)
        slowest = slowest_activations(buffered_trace, k=1)
        assert slowest and slowest[0].attrs["waited_ms"] > 0
        text = format_chain(index, slowest[0])
        assert "buffered" in text
        assert "waited on" in text
        assert "deliver" in text

    def test_summary_reports_tail_latencies(self, buffered_trace):
        text = summarize_trace(buffered_trace, top=1)
        assert "p50=" in text and "p95=" in text and "p99=" in text
        assert "slowest activations" in text

    def test_diff_is_zero_against_itself(self, buffered_trace):
        text = diff_traces(buffered_trace, buffered_trace)
        for line in text.splitlines()[1:]:
            assert line.rstrip().endswith(("0", "0.0")), line


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_thousand_op_run_exports_valid_chrome_json(self, tmp_path):
        cfg = SimulationConfig(protocol="opt-track", n_sites=5, n_vars=20,
                               ops_per_process=200, seed=11)
        tracer = Tracer()
        result = run_simulation(cfg, tracer=tracer)
        assert result.workload.total_operations >= 1000
        path = write_chrome(tracer, tmp_path / "chrome.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["protocol"] == "opt-track"
        phases = {e["ph"] for e in events}
        assert {"M", "X", "s", "f", "C"} <= phases
        # one named track per site
        threads = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in threads} == {
            f"site {i}" for i in range(5)
        }
        for e in events:
            assert e["ph"] in ("M", "X", "s", "f", "i", "C")
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "ts" in e
        # every flow-finish binds to an emitted flow-start id
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert finishes <= starts

    def test_matches_golden_schema(self):
        tracer = Tracer()
        run_simulation(golden_cfg(), tracer=tracer)
        produced = to_chrome(tracer)
        golden = json.loads(
            (GOLDEN_DIR / "trace_chrome_small.json").read_text()
        )
        assert produced == golden, (
            "Chrome export changed; if intentional, regenerate the golden "
            "file with tests/golden/regen_trace_chrome.py"
        )


#: ``repro run --trace`` flags of a chaos + crash run and of a churn run
FAULT_RUNS = {
    "chaos-crash": ["--drop-rate", "0.05", "--crash-plan", "600:1500:2"],
    "churn": ["--drop-rate", "0.05", "--churn-joins", "1",
              "--churn-leaves", "1"],
}


@pytest.fixture(scope="module", params=sorted(FAULT_RUNS))
def fault_run(request, tmp_path_factory):
    """(name, trace, Chrome document) of one ``repro run --trace``."""
    from repro.cli import main

    out = tmp_path_factory.mktemp(request.param)
    rc = main(["run", "--trace", str(out), "--protocol", "opt-track",
               "-n", "5", "-q", "20", "--ops", "40", *FAULT_RUNS[request.param]])
    assert rc == 0
    doc = json.loads((out / "trace_chrome.json").read_text())
    return request.param, load_trace(out / "trace.jsonl"), doc


class TestChromeUnderFaults:
    def test_every_used_track_is_named(self, fault_run):
        name, trace, doc = fault_run
        events = doc["traceEvents"]
        named = {e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        used = {e["tid"] for e in events if e["ph"] != "M"}
        assert used <= named
        # the churn run's joiner (site 5) has events of its own
        joined = {ev.site for ev in trace.events} - set(range(5))
        assert joined == ({5} if name == "churn" else set())

    def test_in_flight_track_follows_sends_and_first_deliveries(
            self, fault_run):
        _name, trace, doc = fault_run
        sends = {ev.id for ev in trace.of_kind("msg.send")}
        delivered: set = set()
        in_flight, samples = 0, {}
        for ev in trace.events:
            if ev.kind == "msg.send":
                in_flight += 1
            elif ev.kind == "msg.deliver" and ev.parent not in delivered:
                delivered.add(ev.parent)
                in_flight -= 1
            else:
                continue
            assert in_flight >= 0
            samples.setdefault(int(ev.ts // 100.0), []).append(in_flight)
        assert sends and delivered
        assert in_flight == len(sends - delivered)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["ts"] for c in counters] == [
            round(b * 100.0 * 1000.0, 3) for b in sorted(samples)]
        for c, b in zip(counters, sorted(samples)):
            assert c["args"]["messages"] == pytest.approx(
                sum(samples[b]) / len(samples[b]))
            assert c["args"]["messages"] >= 0


def test_traced_run_installs_no_kernel_observer():
    from repro.experiments.runner import build_system

    system = build_system(tiny_cfg(), tracer=Tracer())
    assert system.sim.observer is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestTraceCliSubcommands:
    def test_run_then_summarize_then_diff(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t"
        rc = main(["run", "--trace", str(out), "-n", "4", "-q", "20",
                   "--ops", "25", "--latency", "adversarial"])
        assert rc == 0
        assert (out / "trace.jsonl").exists()
        assert (out / "trace_chrome.json").exists()
        run_out = capsys.readouterr().out
        assert "visibility lag ms" in run_out

        rc = main(["trace", "summarize", str(out / "trace.jsonl")])
        assert rc == 0
        sum_out = capsys.readouterr().out
        assert "p99=" in sum_out

        rc = main(["trace", "diff", str(out / "trace.jsonl"),
                   str(out / "trace.jsonl")])
        assert rc == 0
        assert "delta" in capsys.readouterr().out
