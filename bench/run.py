#!/usr/bin/env python3
"""The benchmark of record: one command, six workloads, both substrates.

One workload, one fresh process (the driver's contract)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs all six, each
in child processes of its own, and writes ``<out>/results.json`` for
``bench/compare.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from reference import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: timed repeats of the identical seeded input, at least (4-5 fit the
#: seconds at the machine's fast speed); a traced or smoke run reports no
#: end-to-end metric of record and takes exactly two
MIN_REPEATS = 3
#: set-up samples per run (this process plus fresh probe processes)
SETUP_SAMPLES = 3
#: the untimed warm-up repeat and ``--smoke`` run at these shares of the size
WARMUP_SCALE = 0.1
SMOKE_SCALE = 0.05


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh process doing the set-up and nothing else."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Spans:
    """The benchmark's own spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def phase(self, kind: str, fn):
        """Run ``fn()`` inside a top-level span of its own."""
        row = {"id": f"{kind}-{len(self.rows)}", "parent": None,
               "kind": kind, "start": time.perf_counter()}
        self.rows.append(row)
        try:
            return fn()
        finally:
            row["end"] = time.perf_counter()


def measure_setup(args: argparse.Namespace, sampler: SpeedSampler,
                  spans: Spans):
    """Everything from the program's imports to the first timed op; returns
    (spec, prepared input, set-up seconds at nominal speed)."""
    start = time.perf_counter()
    with sampler:
        import workloads

        spec = workloads.BY_NAME[args.workload]
        if args.smoke:
            spec = spec.scaled(SMOKE_SCALE)
        prepared = spans.phase(
            "generate_workload", lambda: workloads.setup_once(spec, args.seed))
        raw_s = time.perf_counter() - start
    return spec, prepared, (raw_s - sampler.busy_s) / sampler.slowdown


def check_instance(spec, args: argparse.Namespace, sampler: SpeedSampler,
                   spans: Spans, problems: list[str]):
    """Correctness: a reduced instance of the same shape, history on,
    through the full causal checker (quadratic, so not the timed size).
    Returns (the instance's repeat, seconds the checker took)."""
    import workloads
    from repro.verify.causal_checker import check_causal_consistency

    check = spans.phase("run_check_instance", lambda: workloads.run_repeat(
        workloads.prepare(spec.reduced(), args.seed), sampler,
        keep_history=True))
    if check.history is None:  # the instance itself failed
        return check, 0.0
    events = check.history.events
    if args.inject == "violation":
        # the self-test's fault: site 0 applies its updates in reverse
        at = [i for i, e in enumerate(events)
              if e.kind.name == "APPLY" and e.site == 0]
        for i, event in zip(at, [events[j] for j in reversed(at)]):
            events[i] = event
    start = time.perf_counter()
    report = spans.phase("check", lambda: check_causal_consistency(
        check.history, check.placement))
    check.counts["violations"] = len(report.violations)
    problems += [f"causal checker: {v}" for v in report.violations[:5]]
    return check, time.perf_counter() - start


def timed_repeats(spec, prepared, args: argparse.Namespace,
                  sampler: SpeedSampler, spans: Spans,
                  problems: list[str]) -> list:
    """A fixed op count each, until the seconds are used."""
    import workloads

    budget, at_least = args.seconds, MIN_REPEATS
    if args.smoke or args.trace:
        budget, at_least = 0.0, 2
    timed: list = []
    start = time.perf_counter()
    while True:
        timed.append(spans.phase("repeat", lambda: workloads.run_repeat(
            prepared, sampler, inject_failed_op=args.inject == "failed_op")))
        if len(timed) >= at_least and time.perf_counter() - start >= budget:
            break
    if spec.substrate == "sim":
        for key in ("sim_events", "lifetime_message_count",
                    "total_metadata_bytes"):
            if len({r.counts.get(key) for r in timed}) != 1:
                problems.append(f"{key} differs between repeats of one input")
    return timed


def traced_repeat(spec, prepared, args: argparse.Namespace, spans: Spans):
    """One more repeat under cProfile, written out with the spans; returns
    (the repeat, self seconds per layer, call counts)."""
    import layers
    import workloads

    profile = cProfile.Profile()

    def run():
        profile.enable()
        try:
            return workloads.run_repeat(prepared,
                                        SpeedSampler(periodic=False))
        finally:
            profile.disable()

    traced = spans.phase("traced_repeat", run)
    parent = spans.rows[-1]["id"]
    self_s, calls = layers.attribute(profile)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{spec.name}.spans.jsonl", "w",
              encoding="utf-8") as fh:
        for span in spans.rows + [{**s, "parent": parent}
                                  for s in traced.spans]:
            fh.write(json.dumps(span) + "\n")
    (out_dir / f"{spec.name}.layers.json").write_text(json.dumps(
        {"workload": spec.name, "seed": args.seed, "self_s": self_s,
         "calls": dict(sorted(calls.items()))}, indent=1) + "\n",
        encoding="utf-8")
    return traced, self_s, calls


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    """Measure one workload in this process; returns the exit code."""
    sampler = SpeedSampler()
    spans = Spans()
    problems: list[str] = []

    spec, prepared, setup_s = measure_setup(args, sampler, spans)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    from statistics import median

    import metrics
    import workloads

    if args.seed == 1 and spec.seed1_sha256 \
            and prepared.digest != spec.seed1_sha256:
        problems.append(f"inputs changed: seed 1 digest {prepared.digest} "
                        f"!= recorded {spec.seed1_sha256}")
    setup = [setup_s]
    if not args.smoke:
        setup += [_probe_setup(spec.name, args.seed)
                  for _ in range(SETUP_SAMPLES - 1)]

    check, check_s = check_instance(spec, args, sampler, spans, problems)
    spans.phase("warmup", lambda: workloads.run_repeat(
        workloads.prepare(spec.scaled(WARMUP_SCALE), args.seed), sampler))
    timed = timed_repeats(spec, prepared, args, sampler, spans, problems)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    values = metrics.end_to_end(timed, median(setup), peak_rss_mib)
    every = [check] + timed
    if args.trace:
        traced, self_s, calls = traced_repeat(spec, prepared, args, spans)
        every.append(traced)
        values.update(metrics.per_layer(timed, check, check_s, traced,
                                        self_s, calls))

    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    units = {m["name"]: m["unit"]
             for part in ("end_to_end", "per_layer") for m in contract[part]}
    print(f"# {spec.name} seed={args.seed} repeats={len(timed)} "
          f"ops/repeat={timed[0].ops} "
          f"({'loopback TCP on 127.0.0.1, ' if spec.substrate == 'live' else ''}"
          f"closed loop, fixed op count)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in contract["per_layer" if args.trace
                                      else "end_to_end"]},
    }))
    return 1 if problems else 0


def run_all(args: argparse.Namespace, contract: dict) -> int:
    """Every workload, each run in a fresh child process, one after another."""
    results: dict[str, dict] = {}
    status = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        entry = results[name] = {"end_to_end": {}, "per_layer": {},
                                 "correct": True}
        # tracing off for each seed, then one traced run on the first seed
        for trace, seed in [(0, args.seed + k) for k in range(args.runs)] \
                + [(1, args.seed)]:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", args.out] + ["--smoke"] * args.smoke
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
                entry["correct"] = False
                continue
            part = entry["per_layer" if trace else "end_to_end"]
            for metric, cell in json.loads(lines[-1])["metrics"].items():
                part.setdefault(metric, []).append(cell["value"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {out_dir / 'results.json'}")
    return status


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this workload in this process "
                             "(default: all, each in child processes)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (1 = development, 2 = held out)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="how long the timed repeats measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a cProfile'd repeat, report per-layer")
    parser.add_argument("--out", default=".bench_out",
                        help="where traces and results.json are written")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: untraced runs per "
                             "workload, on seeds SEED..SEED+RUNS-1")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size, two repeats: exercises every path")
    parser.add_argument("--inject", choices=("failed_op", "violation"),
                        help="self-test only: make the run incorrect")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are drawn per process and move dict and set layouts;
        # pinning them took a third off the run-to-run spread (measured)
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    try:
        sys.exit(main())
    except ImportError as exc:
        # a checkout without the program under test: no result, non-zero
        sys.exit(f"bench: cannot import the program under test: {exc}")
