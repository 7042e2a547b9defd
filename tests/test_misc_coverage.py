"""Coverage for smaller corners: events, sweep configs, reports, cluster."""

import pytest

from repro import CausalCluster, ConstantLatency
from repro.experiments.report import write_csv
from repro.experiments.runner import build_placement
from repro.experiments.sweep import CellResult, cell_config
from repro.verify.history import EventKind, EventRecord


class TestEventRecords:
    def test_roundtrip_full(self):
        ev = EventRecord(kind=EventKind.WRITE_OP, time=3.5, site=2, var=7,
                         value=99, write_id=(1, 4), op_index=12,
                         detail="x", dests=(1, 2))
        again = EventRecord.from_dict(ev.as_dict())
        assert again == ev

    def test_roundtrip_minimal(self):
        ev = EventRecord(kind=EventKind.APPLY, time=0.0, site=0, write_id=(1, 1))
        again = EventRecord.from_dict(ev.as_dict())
        assert again == ev and again.var is None and again.dests is None

    def test_kinds_are_the_three_the_checkers_read(self):
        assert {k.value for k in EventKind} == {"write_op", "read_op", "apply"}

    def test_a_peer_key_is_ignored(self):
        row = EventRecord(kind=EventKind.APPLY, time=1.0, site=0,
                          write_id=(0, 1)).as_dict()
        assert "peer" not in row
        assert EventRecord.from_dict({**row, "peer": 3}) == EventRecord.from_dict(row)

    def test_records_are_frozen(self):
        ev = EventRecord(kind=EventKind.APPLY, time=0.0, site=0)
        with pytest.raises(AttributeError):
            ev.site = 5


class TestSweepHelpers:
    def test_cell_config_canonical_fields(self):
        cfg = cell_config("opt-track", 10, 0.5, ops_per_process=77, seed=3)
        assert cfg.n_sites == 10
        assert cfg.write_rate == 0.5
        assert cfg.ops_per_process == 77
        assert cfg.seed == 3
        assert cfg.n_vars == 100  # the paper's q

    def test_cell_config_overrides(self):
        cfg = cell_config("opt-track", 5, 0.2, ops_per_process=10,
                          warmup_fraction=0.0, replication_factor=4)
        assert cfg.warmup_fraction == 0.0
        assert build_placement(cfg).replication_factor == 4

    def test_cell_result_accessors(self):
        cell = CellResult({
            "SM_mean_bytes": 1.0, "RM_mean_bytes": 2.0, "FM_mean_bytes": 3.0,
            "total_metadata_bytes": 10.0, "total_message_count": 4,
        })
        assert cell.mean_sm == 1.0
        assert cell.mean_rm == 2.0
        assert cell.mean_fm == 3.0
        assert cell.total_bytes == 10.0
        assert cell.total_count == 4


class TestReportFiles:
    def test_write_csv_to_disk(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,y"

    def test_write_csv_column_subset(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv([{"a": 1, "b": 2}], path, columns=["b"])
        assert path.read_text().splitlines()[0] == "b"


class TestClusterMisc:
    def test_advance_negative_rejected(self):
        c = CausalCluster(2, protocol="optp", n_vars=2,
                          latency=ConstantLatency(1.0))
        with pytest.raises(ValueError):
            c.advance(-1.0)

    def test_now_tracks_simulated_time(self):
        c = CausalCluster(2, protocol="optp", n_vars=2,
                          latency=ConstantLatency(1.0))
        assert c.now == 0.0
        c.advance(25.0)
        assert c.now == 25.0

    def test_write_ids_monotone_per_site(self):
        c = CausalCluster(2, protocol="optp", n_vars=2,
                          latency=ConstantLatency(1.0))
        w1 = c.write(0, 0, "a")
        w2 = c.write(0, 1, "b")
        assert w2.clock == w1.clock + 1
        assert w1.site == w2.site == 0

    def test_deterministic_given_seed(self):
        def run():
            c = CausalCluster(3, protocol="opt-track", n_vars=4, seed=5)
            for k in range(6):
                c.write(k % 3, k % 4, k)
                c.advance(20.0)
            c.settle()
            return c.collector.as_dict()

        assert run() == run()

    def test_pause_out_of_range(self):
        c = CausalCluster(2, protocol="optp", n_vars=2)
        with pytest.raises(ValueError):
            c.pause_site(5)
