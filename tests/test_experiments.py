"""Tests for the experiment sweep machinery, paper drivers, and reports."""

import functools

import pytest

from repro.experiments import sweep
from repro.experiments.exhibits import (
    EXHIBITS,
    FULL_NS,
    PARTIAL_NS,
    bench_ops,
    bench_seeds,
    eq2_rows,
    fig1_rows,
    fig5_rows,
    full_avg_size_rows,
    partial_avg_size_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.experiments.report import ascii_chart, csv_text, format_kv, format_table
from repro.experiments.runner import run_simulation
from repro.experiments.sweep import averaged_cell

TINY = dict(ops_per_process=12, seeds=(0,))


def cells_of(exhibit, monkeypatch):
    """The (protocol, n, write_rate) cells ``exhibit``'s builder reads."""
    template = run_simulation(sweep.cell_config("optp", 3, 0.5,
                                                ops_per_process=5)).summary()
    asked = set()

    def fake(protocol, n, write_rate, ops_per_process, seed, n_vars):
        asked.add((protocol, n, write_rate))
        return template

    monkeypatch.setattr(sweep, "run_cell", fake)
    EXHIBITS[exhibit].rows(ops_per_process=5, seeds=(0,))
    return asked


class TestSweep:
    def test_averaged_cell_is_mean_of_seeds(self):
        single0 = averaged_cell("optp", 3, 0.5, ops_per_process=12, seeds=(0,))
        single1 = averaged_cell("optp", 3, 0.5, ops_per_process=12, seeds=(1,))
        both = averaged_cell("optp", 3, 0.5, ops_per_process=12, seeds=(0, 1))
        assert both["SM_count"] == pytest.approx(
            (single0["SM_count"] + single1["SM_count"]) / 2
        )
        assert both["n_runs"] == 2

    def test_averaged_cell_requires_seed(self):
        with pytest.raises(ValueError):
            averaged_cell("optp", 3, 0.5, ops_per_process=5, seeds=())

    def test_paired_runs_share_workload(self, monkeypatch):
        # Table IV's "same schedule": two protocols' cached runs of one
        # cell replay equal workloads
        workloads = {}

        def recording(cfg):
            result = run_simulation(cfg)
            workloads[cfg.protocol] = result.workload
            return result

        monkeypatch.setattr(sweep, "run_simulation", recording)
        monkeypatch.setattr(sweep, "run_cell", functools.lru_cache(maxsize=None)(
            sweep.run_cell.__wrapped__))
        for protocol in ("opt-track", "opt-track-crp"):
            averaged_cell(protocol, 4, 0.5, ops_per_process=10, seeds=(3,))
        assert workloads["opt-track"] == workloads["opt-track-crp"]
        assert workloads["opt-track"].seed == 3

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "77")
        monkeypatch.setenv("REPRO_BENCH_SEEDS", "3")
        assert bench_ops() == 77
        assert bench_seeds() == 3
        monkeypatch.delenv("REPRO_BENCH_OPS")
        assert bench_ops(42) == 42


class TestPaperDrivers:
    def test_fig1_shape(self):
        rows = fig1_rows(n_values=(3, 5), write_rates=(0.5,), **TINY)
        assert len(rows) == 2
        for row in rows:
            assert 0 < row["ratio"]
            assert row["opt_track_bytes"] > 0

    def test_fig1_ratio_decreases_with_n(self):
        rows = fig1_rows(n_values=(4, 12), write_rates=(0.5,),
                         ops_per_process=40, seeds=(0,))
        assert rows[1]["ratio"] < rows[0]["ratio"]

    def test_partial_avg_rows(self):
        rows = partial_avg_size_rows(0.5, n_values=(4,), **TINY)
        protos = {r["protocol"] for r in rows}
        assert protos == {"opt-track", "full-track"}
        ft = next(r for r in rows if r["protocol"] == "full-track")
        assert ft["sm_bytes"] > ft["fm_bytes"]

    def test_table2_rows(self):
        rows = table2_rows(n_values=(4,), write_rates=(0.5,), **TINY)
        assert len(rows) == 4  # 2 protocols x SM/RM
        assert all("n4" in r for r in rows)

    def test_fig5_ratio_below_one_at_larger_n(self):
        rows = fig5_rows(n_values=(12,), write_rates=(0.5,),
                         ops_per_process=40, seeds=(0,))
        assert rows[0]["ratio"] < 1.0

    def test_full_avg_rows_optp_exceeds_crp_at_scale(self):
        rows = full_avg_size_rows(0.5, n_values=(15,),
                                  ops_per_process=30, seeds=(0,))
        crp = next(r for r in rows if r["protocol"] == "opt-track-crp")
        optp = next(r for r in rows if r["protocol"] == "optp")
        assert crp["sm_bytes"] < optp["sm_bytes"]

    def test_table3_optp_column_linear(self):
        rows = table3_rows(n_values=(5, 10), write_rates=(0.5,), **TINY)
        from repro.core.clocks import VectorClock
        from repro.core.messages import OptPSM
        from repro.memory.store import WriteId

        for row, n in zip(rows, (5, 10)):
            sm = OptPSM(0, 1, WriteId(0, 1), VectorClock(n))
            assert row["optp"] == sm.metadata_size()

    def test_table4_matches_eq2_direction(self):
        rows = table4_rows(n_values=(5, 10), write_rates=(0.2, 0.8),
                           ops_per_process=60, seeds=(0,))
        n5 = rows[0]
        # paper: at n=5 partial loses at w_rate 0.2, wins at 0.8
        assert n5["partial_0.2"] > n5["full_0.2"]
        assert n5["partial_0.8"] < n5["full_0.8"]
        n10 = rows[1]
        assert n10["partial_0.2"] < n10["full_0.2"]

    def test_eq2_prediction_accuracy(self):
        rows = eq2_rows(n_values=(5, 10), write_rates=(0.1, 0.5),
                        ops_per_process=60, seeds=(0,))
        agree = [r for r in rows
                 if r["partial_wins_sim"] == r["partial_wins_eq2"]]
        # sampling noise near the threshold is allowed; far from it the
        # prediction must hold (0.5 >> threshold for both n values)
        far = [r for r in rows if r["write_rate"] == 0.5]
        assert all(r["partial_wins_sim"] for r in far)
        assert len(agree) >= len(rows) - 1


class TestExperimentSpecs:
    def test_all_paper_exhibits_present(self):
        for key in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig8", "table2", "table3", "table4", "eq2"):
            assert key in EXHIBITS

    def test_cells_iteration(self, monkeypatch):
        cells = cells_of("fig1", monkeypatch)
        assert len(cells) == 2 * 5 * 3
        assert ("opt-track", 5, 0.2) in cells

    def test_partial_grids_use_paper_ns(self, monkeypatch):
        assert PARTIAL_NS == (5, 10, 20, 30, 40)
        assert FULL_NS == (5, 10, 20, 30, 35, 40)
        assert {n for _, n, _ in cells_of("table2", monkeypatch)} == set(PARTIAL_NS)
        assert {n for _, n, _ in cells_of("table3", monkeypatch)} == set(FULL_NS)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.125}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].endswith("bb")
        assert "10" in lines[3]
        assert "0.125" in lines[3]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_csv_text(self):
        rows = [{"x": 1, "y": "hi"}]
        text = csv_text(rows)
        assert text.splitlines() == ["x,y", "1,hi"]

    def test_csv_empty(self):
        assert csv_text([]) == ""

    def test_ascii_chart_renders_series(self):
        chart = ascii_chart(
            {"quad": [(n, n * n) for n in range(1, 6)],
             "lin": [(n, n) for n in range(1, 6)]},
            title="growth", width=30, height=8,
        )
        assert "growth" in chart
        assert "o=quad" in chart and "x=lin" in chart
        assert chart.count("\n") > 8

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_ascii_chart_constant_series(self):
        chart = ascii_chart({"flat": [(0, 5.0), (1, 5.0)]})
        assert "o=flat" in chart

    def test_format_kv(self):
        text = format_kv({"alpha": 1, "b": 2.5})
        assert "alpha : 1" in text
        assert "b     : 2.500" in text
