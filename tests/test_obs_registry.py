"""Tests for the metrics registry, metadata ledger, and exporters.

Covers the observability acceptance invariants:

* ledger <-> collector cross-check: the per-component byte totals sum
  exactly to the collector's Table-II/III message totals, per protocol,
  in both windows (lifetime and warm-up-gated measured), whether the
  collector is a simulator run's or a live (loopback) node's;
* ``registry=None`` is byte-identical to the seed behaviour;
* same-seed double runs export byte-identical Prometheus/JSON dumps;
* per-message decomposition sums exactly to ``metadata_size``;
* TimeSeries / reservoir / bucket-quantile edge cases;
* the ``repro metrics`` CLI surface (run / summarize / diff).
"""

import json

import pytest

from repro.cli import main as cli_main
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
from repro.metrics.stats import RunningStat, percentile
from repro.obs.export import (
    diff_snapshots,
    flatten_snapshot,
    ledger_table,
    registry_snapshot,
    to_prometheus,
)
from repro.obs.ledger import MetadataLedger, decompose_message
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.timeseries import TimeSeries
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.service.bootstrap import default_topology
from repro.service.loopback import LoopbackCluster

ALL_PROTOCOLS = ("full-track", "opt-track", "opt-track-crp", "optp")
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
        cluster.clock.tick(1.0)
        cluster.put(k % 3, k % 3 + 3 * (k % 2), k)
        cluster.get((k + 1) % 3, k % 6)
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
        8 x (36 - 25)); the CI churn matrix runs exactly this command."""
        code = cli_main([
            "metrics", "run", str(tmp_path), "--protocol", "full-track",
            "-n", "5", "--ops", "40", "--churn-joins", "1",
            "--churn-leaves", "1", "--churn-seed", str(seed),
            "--churn-window", "300:1500", "--heartbeat-ms", "0"])
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
class TestRegistryDeterminism:
    def test_registry_none_does_not_perturb_collector(self):
        on = run_simulation(small_cfg("opt-track"), registry=MetricsRegistry())
        off = run_simulation(small_cfg("opt-track"))
        assert on.collector.as_dict() == off.collector.as_dict()

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


# ----------------------------------------------------------------------
# satellite 3: TimeSeries + reservoir + bucket-quantile edge cases
# ----------------------------------------------------------------------
class TestTimeSeriesEdges:
    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            TimeSeries(bucket_ms=0)
        with pytest.raises(ValueError):
            TimeSeries(bucket_ms=-5)

    def test_boundary_sample_lands_in_next_bucket(self):
        ts = TimeSeries(bucket_ms=100.0)
        ts.observe("depth", 99.999, 1.0)
        ts.observe("depth", 100.0, 5.0)
        series = ts.series("depth")
        assert [t for t, _ in series] == [0.0, 100.0]
        assert series[1][1].mean == 5.0

    def test_unknown_series_is_empty(self):
        ts = TimeSeries()
        assert ts.series("nope") == []
        assert ts.points("nope") == []
        assert ts.rate("nope") == []

    def test_rate_counts_events_per_ms(self):
        ts = TimeSeries(bucket_ms=10.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            ts.incr("sends", t)
        ((start, rate),) = ts.rate("sends")
        assert start == 0.0
        assert rate == pytest.approx(0.4)


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

    def test_empty_stat_quantiles_are_zero(self):
        stat = RunningStat()
        assert stat.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_module_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestBucketQuantiles:
    def test_interpolated_quantiles_without_reservoir(self):
        hist = Histogram(buckets=(1, 2, 4, 8), reservoir=False)
        for v in (0.5, 1.5, 1.5, 3.0, 6.0, 10.0):
            hist.observe(v)
        q = hist.quantiles()
        assert hist.count == 6
        assert 1.0 <= q["p50"] <= 4.0
        assert q["p95"] >= 8.0

    def test_empty_histogram_quantiles_are_zero(self):
        hist = Histogram(reservoir=False)
        assert hist.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_cumulative_buckets_are_monotone_and_end_in_inf(self):
        hist = Histogram(buckets=(1, 10), reservoir=False)
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        rows = hist.cumulative_buckets()
        assert rows[-1][0] == "+Inf"
        counts = [c for _, c in rows]
        assert counts == sorted(counts)
        assert counts[-1] == 3


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
        common = ["--protocol", "opt-track", "-n", "4", "--ops", "30",
                  "--heartbeat-ms", "0"]
        assert cli_main(["metrics", "run", str(out_a),
                         "--seed", "3", *common]) == 0
        assert cli_main(["metrics", "run", str(out_b),
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

    def test_same_seed_runs_write_identical_dumps(self, tmp_path):
        args = ["--protocol", "opt-track", "-n", "4", "--ops", "30",
                "--seed", "5", "--heartbeat-ms", "0"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["metrics", "run", str(out_a), *args]) == 0
        assert cli_main(["metrics", "run", str(out_b), *args]) == 0
        assert ((out_a / "metrics.prom").read_bytes()
                == (out_b / "metrics.prom").read_bytes())
        assert ((out_a / "metrics.json").read_bytes()
                == (out_b / "metrics.json").read_bytes())
