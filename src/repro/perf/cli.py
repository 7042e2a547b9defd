"""``python -m repro.perf`` — the metrics-registry overhead gate.

Runs :func:`~repro.perf.overhead.run_overhead` (registry on vs off over
the reference run), prints the ratio and exits 1 when the enabled
registry costs more than ``--threshold`` (default 5%).

* ``--quick``        — label the run ``quick`` (CI) instead of ``full``;
* ``--record LABEL`` — also store the measurement under ``LABEL`` in
  ``--file`` (default ``BENCH_overhead.json``): one entry per label, one
  result per mode, so re-recording refreshes instead of duplicating;
* ``--json PATH``    — dump this run's raw result to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .overhead import DEFAULT_OVERHEAD_THRESHOLD, run_overhead

__all__ = ["main"]

SCHEMA_VERSION = 1
DEFAULT_FILE = "BENCH_overhead.json"


def _load_overhead_file(path: Path) -> dict:
    """Load and schema-check a BENCH_overhead.json file."""
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION or data.get("bench") != "overhead":
        raise ValueError(
            f"{path}: not a schema-{SCHEMA_VERSION} overhead bench file")
    if not isinstance(data.get("entries"), list):
        raise ValueError(f"{path}: missing entries list")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Metrics-registry overhead gate (registry on vs off).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="record under the 'quick' mode (what CI runs)")
    parser.add_argument("--record", metavar="LABEL",
                        help="store this run as entry LABEL in --file")
    parser.add_argument("--file", default=DEFAULT_FILE,
                        help=f"overhead history file (default {DEFAULT_FILE})")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_OVERHEAD_THRESHOLD,
                        help="allowed fractional registry overhead "
                             f"(default {DEFAULT_OVERHEAD_THRESHOLD})")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="also dump this run's raw result to PATH")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    mode = "quick" if args.quick else "full"
    path = Path(args.file)
    data = {"schema": SCHEMA_VERSION, "bench": "overhead", "entries": []}
    if args.record and path.exists():
        # refuse a foreign file before spending the measurement on it
        try:
            data = _load_overhead_file(path)
        except (OSError, ValueError) as exc:
            print(f"--file: {exc}", file=sys.stderr)
            return 2
    result = run_overhead(threshold=args.threshold)
    escalated = (f" [escalated from {result['first_ratio']:.3f}x]"
                 if result.get("escalated") else "")
    print(f"overhead ({mode}): {result['reference']}"
          f" off {result['wall_off_s']:.3f}s vs on {result['wall_on_s']:.3f}s"
          f" -> ratio {result['overhead_ratio']:.3f}x"
          f" (gate <= {1.0 + args.threshold:.2f}x){escalated}")

    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result, indent=2) + "\n")
    if args.record:
        entries = data["entries"]
        entry = next((e for e in entries if e.get("label") == args.record),
                     None)
        if entry is None:
            entry = {"label": args.record, "modes": {}}
            entries.append(entry)
        entry["modes"][mode] = result
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded entry {args.record!r} ({mode}) in {path}")

    if result["overhead_ratio"] > 1.0 + args.threshold:
        print(f"METRICS OVERHEAD REGRESSION: enabled registry costs "
              f"{(result['overhead_ratio'] - 1.0):.1%} "
              f"(allowed <= {args.threshold:.0%})")
        return 1
    print(f"overhead gate OK (threshold {args.threshold:.0%})")
    return 0
