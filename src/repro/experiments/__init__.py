"""Paper exhibits, sweep driver, and report formatting."""

from .exhibits import EXHIBITS, Exhibit, bench_ops, bench_seeds, reproduce_all
from .report import ascii_chart, csv_text, format_kv, format_table, write_csv
from .runner import RunResult, SimulationConfig, build_placement, run_simulation
from .sweep import CellResult, averaged_cell, cell_config, run_cell

__all__ = [
    "SimulationConfig",
    "RunResult",
    "run_simulation",
    "build_placement",
    "EXHIBITS",
    "Exhibit",
    "bench_ops",
    "bench_seeds",
    "averaged_cell",
    "run_cell",
    "cell_config",
    "CellResult",
    "format_table",
    "format_kv",
    "csv_text",
    "write_csv",
    "ascii_chart",
    "reproduce_all",
]
