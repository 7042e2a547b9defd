"""``python -m repro.perf`` — run, record, and gate the hot-path benches.

Modes (composable):

* default            — run the suite and print a table;
* ``--record LABEL`` — also append the measurement as a new entry in
  ``--file`` (default ``BENCH_hotpath.json``), preserving history;
* ``--compare PATH`` — after running, compare against the *newest*
  entry in ``PATH`` and exit 1 if any headline metric regressed by more
  than ``--threshold`` (default 25%); exit 2 if that entry lacks this
  mode's numbers (every entry should record both ``quick`` and ``full``);
* ``--overhead``     — run the metrics-registry overhead bench instead
  (enabled-vs-disabled A/B of the reference macro run) and exit 1 if the
  enabled side costs more than ``--overhead-threshold`` (default 5%);
  ``--record`` then appends to ``--overhead-file``
  (default ``BENCH_overhead.json``).

The JSON file is append-only history: ``entries[0]`` is the pre-refactor
baseline, later entries are labelled measurements, so speedups versus
the original baseline stay computable forever.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .macro import run_macro
from .micro import run_micro
from .overhead import DEFAULT_OVERHEAD_THRESHOLD, run_overhead

__all__ = ["main", "load_bench_file", "compare_results"]

SCHEMA_VERSION = 1
DEFAULT_FILE = "BENCH_hotpath.json"
DEFAULT_THRESHOLD = 0.25
DEFAULT_OVERHEAD_FILE = "BENCH_overhead.json"

#: (section, key) pairs gated by --compare.  Micro structure benches are
#: informational; the gate watches the headline throughput numbers so a
#: noisy sub-bench cannot flake CI.
HEADLINE_METRICS: tuple[tuple[str, str], ...] = (
    ("micro", "events_per_sec"),
    ("macro", "events_per_sec"),
    ("macro", "deliveries_per_sec"),
)


def load_bench_file(path: Path) -> dict:
    """Load and schema-check a BENCH_hotpath.json file."""
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION or data.get("bench") != "hotpath":
        raise ValueError(f"{path}: not a schema-{SCHEMA_VERSION} hotpath bench file")
    if not isinstance(data.get("entries"), list):
        raise ValueError(f"{path}: missing entries list")
    return data


def _empty_file() -> dict:
    return {"schema": SCHEMA_VERSION, "bench": "hotpath", "entries": []}


def compare_results(
    current: dict, baseline_modes: dict, mode: str, threshold: float
) -> list[str]:
    """Return regression messages (empty = pass) for one mode's results.

    ``current`` is ``{"micro": ..., "macro": ...}`` from a fresh run;
    ``baseline_modes`` is an entry's ``modes`` dict from the bench file.
    """
    base = baseline_modes.get(mode)
    if base is None:
        return [f"baseline entry has no {mode!r} mode results"]
    failures: list[str] = []
    for section, key in HEADLINE_METRICS:
        base_val = base.get(section, {}).get(key)
        cur_val = current.get(section, {}).get(key)
        if not base_val or cur_val is None:
            continue  # metric absent in baseline: nothing to gate against
        ratio = cur_val / base_val
        if ratio < 1.0 - threshold:
            failures.append(
                f"{section}.{key}: {cur_val:,.0f} vs baseline {base_val:,.0f} "
                f"({ratio:.2f}x, allowed >= {1.0 - threshold:.2f}x)"
            )
    return failures


def _speedups(entries: list[dict], current: dict, mode: str) -> dict[str, str]:
    """Current / first-entry ratio per headline metric (vs the baseline)."""
    if not entries:
        return {}
    first = entries[0].get("modes", {}).get(mode)
    if not first:
        return {}
    out: dict[str, str] = {}
    for section, key in HEADLINE_METRICS:
        base_val = first.get(section, {}).get(key)
        cur_val = current.get(section, {}).get(key)
        if base_val and cur_val is not None:
            out[f"{section}.{key}"] = f"{cur_val / base_val:.2f}x"
    return out


def _print_report(current: dict, mode: str) -> None:
    micro = current.get("micro")
    if micro:
        print(f"micro ({mode}): headline {micro['events_per_sec']:,.0f} events/sec")
        for name, b in micro["benches"].items():
            print(f"  {name:<24} {b['ops_per_sec']:>14,.0f} ops/s"
                  f"  ({b['ops']} ops in {b['wall_s']:.3f}s)")
    macro = current.get("macro")
    if macro:
        print(f"macro ({mode}): reference {macro['reference']}"
              f" {macro['events_per_sec']:,.0f} events/sec,"
              f" {macro['deliveries_per_sec']:,.0f} deliveries/sec,"
              f" peak buffered SMs {macro['peak_pending_sms']}")
        for label, r in macro["runs"].items():
            print(f"  {label:<20} {r['events_per_sec']:>12,.0f} ev/s"
                  f" {r['deliveries_per_sec']:>12,.0f} msg/s"
                  f"  peak SMs {r['peak_pending_sms']:>4}"
                  f"  ({r['sim_events']} events in {r['wall_s']:.3f}s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Hot-path benchmark runner and regression gate.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke; ~seconds)")
    parser.add_argument("--micro-only", action="store_true",
                        help="skip the macro simulation runs")
    parser.add_argument("--macro-only", action="store_true",
                        help="skip the micro structure benches")
    parser.add_argument("--record", metavar="LABEL",
                        help="append this run as a labelled entry in --file")
    parser.add_argument("--file", default=DEFAULT_FILE,
                        help=f"bench history file (default {DEFAULT_FILE})")
    parser.add_argument("--compare", metavar="PATH",
                        help="fail if headline metrics regress vs the last "
                             "entry in PATH")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional regression for --compare "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="also dump this run's raw results to PATH")
    parser.add_argument("--overhead", action="store_true",
                        help="run the metrics-registry overhead A/B bench "
                             "instead of the micro/macro suite")
    parser.add_argument("--overhead-file", default=DEFAULT_OVERHEAD_FILE,
                        help="overhead bench history file for --record "
                             f"(default {DEFAULT_OVERHEAD_FILE})")
    parser.add_argument("--overhead-threshold", type=float,
                        default=DEFAULT_OVERHEAD_THRESHOLD,
                        help="allowed fractional registry overhead "
                             f"(default {DEFAULT_OVERHEAD_THRESHOLD})")
    return parser


def _load_overhead_file(path: Path) -> dict:
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION or data.get("bench") != "overhead":
        raise ValueError(
            f"{path}: not a schema-{SCHEMA_VERSION} overhead bench file")
    if not isinstance(data.get("entries"), list):
        raise ValueError(f"{path}: missing entries list")
    return data


def _cmd_overhead(args: argparse.Namespace, mode: str) -> int:
    """The --overhead mode: self-gating A/B, optional history append."""
    result = run_overhead(quick=args.quick,
                          threshold=args.overhead_threshold)
    escalated = (" [escalated from "
                 f"{result['first_ratio']:.3f}x]" if result.get("escalated")
                 else "")
    print(f"overhead ({mode}): {result['reference']}"
          f" off {result['wall_off_s']:.3f}s vs on {result['wall_on_s']:.3f}s"
          f" -> ratio {result['overhead_ratio']:.3f}x"
          f" (gate <= {1.0 + args.overhead_threshold:.2f}x){escalated}")

    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result, indent=2) + "\n")

    if args.record:
        path = Path(args.overhead_file)
        if path.exists():
            data = _load_overhead_file(path)
        else:
            data = {"schema": SCHEMA_VERSION, "bench": "overhead",
                    "entries": []}
        entries = data["entries"]
        entry = next((e for e in entries if e.get("label") == args.record),
                     None)
        if entry is None:
            entry = {"label": args.record, "modes": {}}
            entries.append(entry)
        entry["modes"][mode] = result
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded entry {args.record!r} ({mode}) in {path}")

    if result["overhead_ratio"] > 1.0 + args.overhead_threshold:
        print(f"METRICS OVERHEAD REGRESSION: enabled registry costs "
              f"{(result['overhead_ratio'] - 1.0):.1%} "
              f"(allowed <= {args.overhead_threshold:.0%})")
        return 1
    print(f"overhead gate OK (threshold {args.overhead_threshold:.0%})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.micro_only and args.macro_only:
        print("--micro-only and --macro-only are mutually exclusive",
              file=sys.stderr)
        return 2

    mode = "quick" if args.quick else "full"
    if args.overhead:
        return _cmd_overhead(args, mode)
    current: dict = {}
    if not args.macro_only:
        current["micro"] = run_micro(quick=args.quick)
    if not args.micro_only:
        current["macro"] = run_macro(quick=args.quick)

    _print_report(current, mode)

    if args.json_out:
        Path(args.json_out).write_text(json.dumps(current, indent=2) + "\n")

    exit_code = 0

    if args.record:
        path = Path(args.file)
        data = load_bench_file(path) if path.exists() else _empty_file()
        entries = data["entries"]
        # one entry per label; re-recording a label refreshes that
        # entry's mode results instead of duplicating history
        entry = next((e for e in entries if e.get("label") == args.record), None)
        if entry is None:
            entry = {"label": args.record, "modes": {}}
            entries.append(entry)
        entry["modes"][mode] = current
        speed = _speedups(entries, current, mode)
        if speed and entry is not entries[0]:
            entry["modes"][mode]["speedup_vs_baseline"] = speed
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded entry {args.record!r} ({mode}) in {path}")
        if speed and entry is not entries[0]:
            print("speedup vs baseline:",
                  ", ".join(f"{k} {v}" for k, v in sorted(speed.items())))

    if args.compare:
        path = Path(args.compare)
        try:
            data = load_bench_file(path)
        except (OSError, ValueError) as exc:
            print(f"--compare: {exc}", file=sys.stderr)
            return 2
        if not data["entries"]:
            print(f"--compare: {path} has no entries", file=sys.stderr)
            return 2
        # always the newest entry: falling back to an older one that
        # happens to have this mode would gate against stale numbers
        last = data["entries"][-1]
        if mode not in last.get("modes", {}):
            print(f"--compare: newest entry {last.get('label')!r} in {path} "
                  f"has no {mode!r} results (record both modes per entry)",
                  file=sys.stderr)
            return 2
        failures = compare_results(current, last["modes"], mode, args.threshold)
        if failures:
            print(f"PERF REGRESSION vs entry {last['label']!r} in {path}:")
            for f in failures:
                print(f"  {f}")
            exit_code = 1
        else:
            print(f"perf gate OK vs entry {last['label']!r} "
                  f"(threshold {args.threshold:.0%})")

    return exit_code
