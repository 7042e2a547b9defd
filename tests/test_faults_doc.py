"""docs/faults.md's "exercised on the live substrate?" column, held to
what the loopback cluster can run.

A row that says *no* may name only ``cluster.<op>()`` operations the
:class:`~repro.loopback.LoopbackCluster` lacks, and a row that says
*yes* only ones it has, so the table cannot claim what the code cannot
run (nor deny what it can).  Every operation the table names must exist
on :class:`~repro.CausalCluster`, which keeps a misspelt name from
passing by being absent everywhere.
"""

import re
from pathlib import Path

from repro import CausalCluster
from repro.loopback import LoopbackCluster

FAULTS_MD = Path(__file__).resolve().parent.parent / "docs" / "faults.md"
LIVE_COLUMN = "exercised on the live substrate?"


def fault_rows():
    """``(row text, live column)`` for each row of the fault table."""
    lines = FAULTS_MD.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("|") and LIVE_COLUMN in line)
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    assert header[-1] == LIVE_COLUMN
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        live = line.rstrip().rstrip("|").rsplit("|", 1)[1]
        rows.append((line, live.strip().lstrip("*").strip().lower()))
    return rows


def ops_named(row):
    return set(re.findall(r"cluster\.(\w+)\(\)", row))


def test_the_table_is_parsed():
    rows = fault_rows()
    assert len(rows) >= 10
    assert any(live.startswith("no") and ops_named(row)
               for row, live in rows)


def test_named_operations_exist_on_the_simulator():
    for row, _ in fault_rows():
        for op in ops_named(row):
            assert callable(getattr(CausalCluster, op, None)), op


def test_live_column_matches_the_loopback_cluster():
    for row, live in fault_rows():
        for op in ops_named(row):
            has = hasattr(LoopbackCluster, op)
            if live.startswith("no"):
                assert not has, f"faults.md says no, yet the loopback has {op}()"
            elif live.startswith("yes"):
                assert has, f"faults.md says yes, yet the loopback lacks {op}()"
