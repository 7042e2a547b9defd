#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A/results.json B/results.json``.

Each file is what ``bench/run.py --runs N --out DIR`` wrote.  For every
workload x end-to-end metric it prints one row: B's median against A's,
judged by the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` -- the run-to-run spread of either side (distance between
  the quartiles as a share of the median) is wider than the bound, so the
  sets cannot tell a change of that size from noise;
* ``worse`` / ``improved`` -- B's median moved against / with the metric's
  direction by more than the bound;
* ``unchanged`` -- otherwise.

Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float,
            judge_spread: bool = True) -> tuple[str, float, float]:
    """(verdict, signed change of the median as a share, widest spread)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    widest = max(spread(a), spread(b))
    gain = change if better == "higher" else -change
    if judge_spread and widest > bound:
        return "unresolved", change, widest
    if gain < -bound:
        return "worse", change, widest
    if gain > bound:
        return "improved", change, widest
    return "unchanged", change, widest


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    a, b = (json.loads(Path(p).read_text("utf-8")) for p in argv)
    bad = 0
    print(f"{'workload':20} {'metric':20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in contract["workloads"]:
        name = workload["name"]
        for metric in contract["end_to_end"]:
            va = a.get(name, {}).get("end_to_end", {}).get(metric["name"])
            vb = b.get(name, {}).get("end_to_end", {}).get(metric["name"])
            if not va or not vb:
                print(f"{name:20} {metric['name']:20} missing from a set")
                bad += 1
                continue
            # set-up spread is reported but not judged (the driver's rule):
            # only its median is held to the bound
            what, change, widest = verdict(
                va, vb, metric["better"], metric["bound"],
                judge_spread=metric["name"] != "setup_s")
            bad += what in ("worse", "unresolved")
            print(f"{name:20} {metric['name']:20} "
                  f"{statistics.median(va):12.6g} {statistics.median(vb):12.6g} "
                  f"{change:+8.2%} {widest:7.2%} {metric['bound']:6.0%}  {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
