"""Tests for the reproduce-all driver and the new CLI subcommands."""

import functools

import pytest

from repro.cli import main
from repro.experiments import sweep
from repro.experiments.exhibits import EXHIBITS, reproduce_all


class TestReproduceAll:
    def test_all_paper_exhibits_covered(self):
        assert set(EXHIBITS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table2", "table3", "table4", "eq2",
        }

    def test_runs_each_distinct_cell_once(self, tmp_path, monkeypatch):
        # the twelve exhibits read 98 distinct cells at one seed: 30
        # partial (Figs. 1-4, Tables II and IV), 36 full (Figs. 5-8,
        # Table III) and 32 more of Eq. (2)'s grid; each is simulated once
        cells = []
        run = sweep.run_simulation

        def counting(cfg):
            cells.append((cfg.protocol, cfg.n_sites, cfg.write_rate, cfg.seed))
            return run(cfg)

        monkeypatch.setattr(sweep, "run_simulation", counting)
        monkeypatch.setattr(sweep, "run_cell", functools.lru_cache(maxsize=None)(
            sweep.run_cell.__wrapped__))
        reproduce_all(tmp_path, ops_per_process=5, seeds=(0,))
        assert len(cells) == len(set(cells)) == 98

    def test_writes_csv_and_report(self, tmp_path):
        report = reproduce_all(tmp_path, ops_per_process=10,
                               exhibits=["eq2", "fig5"])
        assert report.exists()
        assert (tmp_path / "eq2.csv").exists()
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5.txt").exists()  # chart for figures
        text = report.read_text()
        assert "## eq2" in text and "## fig5" in text

    def test_csv_has_rows(self, tmp_path):
        reproduce_all(tmp_path, ops_per_process=10, exhibits=["table3"])
        lines = (tmp_path / "table3.csv").read_text().splitlines()
        assert len(lines) == 7  # header + 6 n-values

    def test_unknown_exhibit_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown exhibits"):
            reproduce_all(tmp_path, ops_per_process=5, exhibits=["fig99"])

    def test_progress_callback(self, tmp_path):
        lines = []
        reproduce_all(tmp_path, ops_per_process=10, exhibits=["eq2"],
                      progress=lines.append)
        assert len(lines) == 1 and lines[0].startswith("eq2:")

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        reproduce_all(target, ops_per_process=10, exhibits=["eq2"])
        assert (target / "REPORT.md").exists()


class TestNewCliCommands:
    def test_reproduce_command(self, tmp_path, capsys):
        rc = main(["reproduce", "--outdir", str(tmp_path), "--ops", "10",
                   "--only", "eq2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report written" in out
        assert (tmp_path / "eq2.csv").exists()

    def test_advise_partial(self, capsys):
        rc = main(["advise", "-n", "20", "-w", "0.7", "--payload", "500000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "partial replication" in out
        assert "eq. (2)" in out

    def test_advise_full(self, capsys):
        rc = main(["advise", "-n", "3", "-w", "0.05"])
        assert rc == 0
        assert "full replication" in capsys.readouterr().out

    def test_advise_requires_args(self):
        with pytest.raises(SystemExit):
            main(["advise"])
