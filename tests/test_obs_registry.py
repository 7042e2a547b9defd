"""Tests for the metrics registry, metadata ledger, and exporters.

Covers the observability acceptance invariants:

* ledger <-> collector cross-check: the per-component byte totals sum
  exactly to the collector's Table-II/III message totals, per protocol,
  in both windows (lifetime and warm-up-gated measured), whether the
  collector is a simulator run's or a live (loopback) node's;
* a registry only reads: every protocol under every fault set runs the
  same with and without one, and each exported summary is the
  collector stat it names;
* same-seed double runs export byte-identical Prometheus/JSON dumps;
* per-message decomposition sums exactly to ``metadata_size``;
* reservoir edge cases and the summary export form;
* the ``repro metrics`` CLI surface (run / summarize / diff), including
  a diff of a version-1 snapshot against a current one.
"""

import json
import random
from pathlib import Path

import pytest

from repro.cli import _config_from_args, build_parser
from repro.cli import main as cli_main
from repro.cluster import CausalCluster
from repro.core.base import protocol_names
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry
from repro.core.messages import (
    CRPSM,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)
from repro.memory.store import WriteId
from repro.metrics.collector import MessageKind
from repro.metrics.sizing import SizeModel
from repro.metrics.stats import (
    _RESERVOIR_SEED, RESERVOIR_CAPACITY, RunningStat, percentile,
)
from repro.obs.export import (
    METRICS_FORMAT_VERSION,
    diff_snapshots,
    flatten_snapshot,
    ledger_table,
    registry_snapshot,
    to_prometheus,
    write_snapshot_json,
)
from repro.obs.ledger import MetadataLedger, decompose_message
from repro.obs.metrics import MetricsRegistry, Summary
from repro.obs.sinks import write_jsonl
from repro.obs.tracer import Tracer
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.loopback import LoopbackCluster
from repro.service.bootstrap import default_topology

from .test_metrics_golden import FAULT_SETS

#: every registered protocol, so one added later reaches the ledger tests
ALL_PROTOCOLS = tuple(protocol_names())
#: where a ledger's collector comes from: a simulator run of the named
#: protocol, or the nodes of a loopback service cluster running it
LEDGER_SOURCES = ALL_PROTOCOLS + tuple(f"loopback-{p}" for p in ALL_PROTOCOLS)


def small_cfg(protocol: str, **overrides) -> SimulationConfig:
    defaults = dict(protocol=protocol, n_sites=5, n_vars=12, write_rate=0.5,
                    ops_per_process=60, seed=13)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# satellite 1: ledger <-> collector cross-check
# ----------------------------------------------------------------------
def ledgers_of(source: str) -> list[MetadataLedger]:
    """The ledger(s) of one small run from ``source``."""
    if not source.startswith("loopback-"):
        registry = MetricsRegistry()
        run_simulation(small_cfg(source), registry=registry)
        return [registry.ledger]
    cluster = LoopbackCluster(default_topology(
        3, protocol=source.removeprefix("loopback-"), n_vars=6))
    for k in range(12):
        cluster.advance(1.0)
        cluster.write(k % 3, k % 3 + 3 * (k % 2), k)
        cluster.read((k + 1) % 3, k % 6)
    cluster.settle()
    return [MetadataLedger(node.collector, base_n=3) for node in cluster.nodes]


class TestLedgerCrosscheck:
    @pytest.mark.parametrize("source", LEDGER_SOURCES)
    def test_ledger_sums_exactly_to_collector(self, source):
        ledgers = ledgers_of(source)
        for ledger in ledgers:
            assert ledger.crosscheck() == []
            for kind, tally in ledger.collector.tallies.items():
                k = kind.value
                assert ledger.total_count(k, "lifetime") == tally.lifetime_count
                assert ledger.total_bytes(k, "lifetime") == tally.lifetime_bytes
                assert ledger.total_count(k, "measured") == tally.count
                assert ledger.total_bytes(k, "measured") == tally.total_bytes
        # the run really sent messages (the check isn't vacuous)
        assert all(ledger.total_count(window="lifetime") > 0
                   and ledger.total_bytes(window="lifetime") > 0
                   for ledger in ledgers)

    def test_measured_window_is_warmup_gated(self):
        registry = MetricsRegistry()
        run_simulation(small_cfg("opt-track"), registry=registry)
        ledger = registry.ledger
        lifetime = ledger.total_count(window="lifetime")
        measured = ledger.total_count(window="measured")
        assert 0 < measured < lifetime

    def test_crosscheck_reports_discrepancies(self):
        registry = MetricsRegistry()
        result = run_simulation(small_cfg("opt-track"), registry=registry)
        # corrupt one FM slot (a type priced by formula, not by
        # remainder): its count no longer explains its bytes, and the
        # check must name the kind
        _key, slot = next(iter(result.collector.message_slots(MessageKind.FM)))
        slot[0] += 1
        problems = registry.ledger.crosscheck()
        assert problems and all(" FM " in p for p in problems)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_track_rm_from_before_a_view_change(self, tmp_path, capsys,
                                                     seed):
        """A Full-Track RM may carry a matrix stored before a view change,
        narrower than the epoch's clock.  Booked under the epoch's width
        its components overran its price (seed 0: site 3 by 88 B, i.e.
        8 x (36 - 25)); the CI churn matrix runs this command's churn
        plan, under adversarial latency."""
        code = cli_main([
            "run", "--metrics", str(tmp_path), "--protocol", "full-track",
            "-n", "5", "-q", "20", "--ops", "40", "--churn-joins", "1",
            "--churn-leaves", "1", "--churn-seed", str(seed),
            "--churn-window", "300:1500"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ledger crosscheck (components vs priced bytes): OK" in out

    @pytest.mark.parametrize("source", LEDGER_SOURCES)
    def test_component_totals_sum_to_kind_bytes(self, source):
        for ledger in ledgers_of(source):
            for window in ("lifetime", "measured"):
                cells = ledger._window(window)
                for key, cell in cells.items():
                    assert sum(cell.components.values()) == cell.bytes, key


# ----------------------------------------------------------------------
# satellite 6: determinism / zero-perturbation
# ----------------------------------------------------------------------
#: each summary family the runner exports -> the collector stat it reads
SUMMARY_SOURCES = {
    "proto_activation_wait_ms": "activation_delays",
    "proto_log_entries": "log_sizes",
    "crash_downtime_ms": "downtime",
    "wal_replayed_records": "wal_replays",
    "crash_catchup_ms": "catchup_latency",
}


class TestRegistryDeterminism:
    def test_registry_none_does_not_perturb_collector(self, tmp_path):
        """A registry only reads: with and without one, every protocol
        under the metrics golden's four fault sets ends in the same
        collector, clock, event count and trace bytes, and every summary
        it exports is the collector stat it names."""
        for protocol in ALL_PROTOCOLS:
            for faults, flags in FAULT_SETS.items():
                case = f"{protocol}/{faults}"
                cfg = _config_from_args(build_parser().parse_args(
                    ["run", "--protocol", protocol, "-n", "5",
                     "--ops", "40", *flags]))
                registry = MetricsRegistry()
                runs = []
                for reg in (registry, None):
                    tracer = Tracer()
                    result = run_simulation(cfg, tracer=tracer, registry=reg)
                    trace = write_jsonl(tracer, tmp_path / "trace.jsonl")
                    runs.append((result.collector.as_dict(),
                                 result.sim_time_ms, result.total_sim_events,
                                 trace.read_bytes()))
                    if reg is not None:
                        read = result
                on, off = runs
                assert on == off, case
                summaries = [fam for fam in registry.families()
                             if fam.kind == "summary"]
                assert summaries, case
                for fam in summaries:
                    stat = getattr(read.collector, SUMMARY_SOURCES[fam.name])
                    for _values, child in fam.samples():
                        assert (child.count, child.sum) == (
                            stat.count, stat.total), (case, fam.name)
                buffered = registry.get("proto_buffered_arrivals_total")
                assert {values: child.value
                        for values, child in buffered.samples()} == {
                    (p.name, str(p.site)): p.buffered_arrivals
                    for p in read.protocols}, case

    def test_same_seed_double_run_dumps_are_byte_identical(self):
        def dump():
            registry = MetricsRegistry()
            run_simulation(small_cfg("opt-track"), registry=registry)
            prom = to_prometheus(registry)
            snap = json.dumps(registry_snapshot(registry), sort_keys=True)
            return prom, snap

        first, second = dump(), dump()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_ledger_roundtrips_through_dict(self):
        registry = MetricsRegistry()
        run_simulation(small_cfg("opt-track"), registry=registry)
        data = registry.ledger.as_dict()
        clone = MetadataLedger.from_dict(data)
        assert clone.as_dict() == data


# ----------------------------------------------------------------------
# satellite 3 (part): the per-message decomposition invariant
# ----------------------------------------------------------------------
def _sample_messages():
    wid = WriteId(site=1, clock=3)
    log = (
        PiggybackEntry(writer=0, clock=1, dests=frozenset({1, 2})),
        PiggybackEntry(writer=2, clock=5, dests=frozenset({0})),
    )
    return [
        FetchMessage(var=1, reader=2, request_id=7),
        FetchMessage(var=1, reader=2, request_id=7,
                     requirements=((0, 2), (3, 1))),
        FullTrackSM(var=0, value=9, write_id=wid, matrix=MatrixClock(4)),
        FullTrackRM(var=0, value=9, write_id=wid, matrix=MatrixClock(4),
                    request_id=1),
        OptTrackSM(var=0, value=9, write_id=wid, log=log),
        OptTrackSM(var=0, value=9, write_id=wid, log=()),
        OptTrackRM(var=0, value=9, write_id=None, log=log, request_id=2),
        CRPSM(var=0, value=9, write_id=wid, log=((0, 1), (1, 4), (2, 2))),
        OptPSM(var=0, value=9, write_id=wid, vector=VectorClock(6)),
    ]


class TestDecomposeMessage:
    @pytest.mark.parametrize("message", _sample_messages(),
                             ids=lambda m: type(m).__name__)
    def test_components_sum_to_metadata_size(self, message):
        model = SizeModel()
        breakdown = decompose_message(message, model)
        assert sum(b for _, b in breakdown) == message.metadata_size(model)

    def test_clock_growth_splits_into_epoch_padding(self):
        model = SizeModel()
        wid = WriteId(site=0, clock=1)
        grown = FullTrackSM(var=0, value=1, write_id=wid,
                            matrix=MatrixClock(6))
        parts = dict(decompose_message(grown, model, base_n=4))
        assert parts["epoch_padding"] == (36 - 16) * model.matrix_entry
        assert sum(parts.values()) == grown.metadata_size(model)

    def test_without_base_n_no_clock_byte_is_padding(self):
        model = SizeModel()
        wid = WriteId(site=0, clock=1)
        for message, clock_bytes in (
                (FullTrackSM(var=0, value=1, write_id=wid,
                             matrix=MatrixClock(5)), 25 * model.matrix_entry),
                (OptPSM(var=0, value=1, write_id=wid,
                        vector=VectorClock(5)), 5 * model.vector_entry)):
            parts = dict(decompose_message(message, model))
            assert parts["clock_entries"] == clock_bytes
            assert "epoch_padding" not in parts

    def test_interactive_cluster_ledger_has_no_padding(self):
        # the ledger an interactive user builds, as docs/observability.md
        # says to: over the cluster's collector, no base_n
        cluster = CausalCluster(4, protocol="full-track", n_vars=8,
                                replication_factor=2, seed=3)
        for k in range(8):
            cluster.write(k % 4, k, k)
            cluster.read((k + 2) % 4, k)  # not a replica: an FM and an RM
        cluster.settle()
        ledger = MetadataLedger(cluster.collector)
        assert ledger.crosscheck() == []
        parts = {}
        for cell in ledger.lifetime.values():
            for name, b in cell.components.items():
                parts[name] = parts.get(name, 0) + b
        assert "epoch_padding" not in parts
        sm = ledger.total_count("SM", "lifetime")
        rm = ledger.total_count("RM", "lifetime")
        assert sm and rm
        assert parts["clock_entries"] == (sm + rm) * 16 * SizeModel().matrix_entry


# ----------------------------------------------------------------------
# reservoir + bucket-quantile edge cases
# ----------------------------------------------------------------------
class TestReservoirEdges:
    def test_add_many_matches_sequential_adds(self):
        xs = [float(i % 17) for i in range(200)]
        a, b = RunningStat(), RunningStat()
        for x in xs:
            a.add(x)
        b.add_many(xs)
        assert a.count == b.count
        assert a.total == pytest.approx(b.total)
        assert a.quantiles() == b.quantiles()

    def test_add_matches_a_randrange_reservoir(self):
        # reference: Welford moments plus algorithm R drawing its slot
        # with Random.randrange — add()'s inlined draw must consume the
        # same stream and keep the same reservoir
        xs = [float((i * 7919) % 1013) / 7.0 for i in range(5000)]
        rng = random.Random(_RESERVOIR_SEED)
        count, mean, m2, total = 0, 0.0, 0.0, 0.0
        reservoir: list[float] = []
        for x in xs:
            count += 1
            total += x
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if len(reservoir) < RESERVOIR_CAPACITY:
                reservoir.append(x)
            else:
                j = rng.randrange(count)
                if j < RESERVOIR_CAPACITY:
                    reservoir[j] = x
        stat = RunningStat()
        for x in xs:
            stat.add(x)
        assert (stat.count, stat.mean, stat._m2, stat.total) == (
            count, mean, m2, total)
        assert (stat.minimum, stat.maximum) == (min(xs), max(xs))
        assert stat._reservoir == reservoir

    def test_empty_stat_quantiles_are_zero(self):
        stat = RunningStat()
        assert stat.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_module_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummaryExport:
    def test_summary_reads_the_stat_it_holds(self):
        stat = RunningStat()
        registry = MetricsRegistry()
        registry.summary("x_ms", stat, "help", site=1)
        stat.extend([1.0, 2.0, 6.0])
        (_values, child), = registry.get("x_ms").samples()
        assert isinstance(child, Summary) and child.stat is stat
        assert (child.count, child.sum) == (3, 9.0)

    def test_prometheus_summary_form(self):
        stat = RunningStat()
        stat.extend([1.0, 2.0, 3.0])
        registry = MetricsRegistry()
        registry.summary("x_ms", stat, "help", site=1)
        text = to_prometheus(registry)
        assert "# TYPE repro_x_ms summary" in text
        for q in ("0.5", "0.95", "0.99"):
            assert f'repro_x_ms{{site="1",quantile="{q}"}}' in text
        assert 'repro_x_ms_sum{site="1"} 6\n' in text
        assert 'repro_x_ms_count{site="1"} 3\n' in text
        assert "_bucket" not in text

    def test_snapshot_series_is_count_sum_quantiles(self):
        stat = RunningStat()
        stat.add(4.0)
        registry = MetricsRegistry()
        registry.summary("x_ms", stat)
        snap = registry_snapshot(registry)
        assert snap["format"] == METRICS_FORMAT_VERSION == 2
        (series,) = snap["families"]["x_ms"]["series"]
        assert series == {"labels": {}, "count": 1, "sum": 4.0,
                          "quantiles": {"p50": 4.0, "p95": 4.0, "p99": 4.0}}

    def test_a_summary_family_binds_no_counter(self):
        registry = MetricsRegistry()
        registry.summary("x_ms", RunningStat(), site=0)
        with pytest.raises(ValueError):
            registry.get("x_ms").labels(site=1)
        with pytest.raises(ValueError):
            registry.inc("x_ms", site=0)


# ----------------------------------------------------------------------
# exporters + CLI surface
# ----------------------------------------------------------------------
class TestExportSurface:
    @pytest.fixture(scope="class")
    def registry(self):
        registry = MetricsRegistry()
        run_simulation(small_cfg("opt-track"), registry=registry)
        return registry

    def test_prometheus_text_shape(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE " in text
        assert "repro_metadata_bytes_total" in text
        assert 'component="' in text
        assert text.endswith("\n")

    def test_snapshot_flatten_and_self_diff(self, registry):
        snap = registry_snapshot(registry)
        flat = flatten_snapshot(snap)
        assert flat
        assert diff_snapshots(snap, snap) == []

    def test_ledger_table_renders_protocol_kinds(self, registry):
        table = ledger_table(registry.ledger, window="lifetime")
        assert "opt-track" in table
        assert "sm" in table.lower()


class TestMetricsCli:
    def test_run_summarize_diff(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        common = ["--protocol", "opt-track", "-n", "4", "-q", "20",
                  "--ops", "30"]
        assert cli_main(["run", "--metrics", str(out_a),
                         "--seed", "3", *common]) == 0
        assert cli_main(["run", "--metrics", str(out_b),
                         "--seed", "4", *common]) == 0
        capsys.readouterr()

        for outdir in (out_a, out_b):
            assert (outdir / "metrics.prom").exists()
            assert (outdir / "metrics.json").exists()

        assert cli_main(["metrics", "summarize",
                         str(out_a / "metrics.json")]) == 0
        summary = capsys.readouterr().out
        assert "opt-track" in summary

        assert cli_main(["metrics", "diff", str(out_a / "metrics.json"),
                         str(out_b / "metrics.json")]) == 0
        diff_out = capsys.readouterr().out
        assert diff_out.strip()

    def test_diff_reads_a_version_1_snapshot(self, tmp_path, capsys):
        """Old dumps (histograms with buckets) stay diffable against
        current ones: a distribution flattens to its count and sum."""
        old = Path(__file__).parent / "golden" / "metrics_snapshot_v1.json"
        assert json.loads(old.read_text())["format"] == 1
        registry = MetricsRegistry()
        registry.inc("crash_crashes_total", 2)
        downtime, replayed = RunningStat(), RunningStat()
        downtime.extend([900.0, 600.0])
        replayed.add(3.0)
        registry.summary("crash_downtime_ms", downtime)
        registry.summary("wal_replayed_records", replayed)
        new = write_snapshot_json(registry, tmp_path / "metrics.json")
        assert cli_main(["metrics", "diff", str(old), str(new)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["crash_crashes_total: 1 -> 2",
                         "crash_downtime_ms.count: 1 -> 2",
                         "crash_downtime_ms.sum: 900 -> 1500"]

    def test_same_seed_runs_write_identical_dumps(self, tmp_path):
        args = ["--protocol", "opt-track", "-n", "4", "-q", "20",
                "--ops", "30", "--seed", "5"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["run", "--metrics", str(out_a), *args]) == 0
        assert cli_main(["run", "--metrics", str(out_b), *args]) == 0
        assert ((out_a / "metrics.prom").read_bytes()
                == (out_b / "metrics.prom").read_bytes())
        assert ((out_a / "metrics.json").read_bytes()
                == (out_b / "metrics.json").read_bytes())
