"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``run``        — the one verb that simulates: one run, printing the
  metric summary.  Three outputs compose on it: ``--check`` records the
  history and verifies causal consistency, ``--trace DIR`` saves the
  run (workload, history, config) with its JSONL + Chrome traces and
  prints their summary, ``--metrics DIR`` exports the metrics registry
  and gates its metadata-byte ledger; a violation or a ledger mismatch
  exits 1;
* ``experiment`` — regenerate a paper table/figure (fig1..fig8, table2,
  table3, table4, eq2) at a chosen scale;
* ``analytic``   — the closed-form model for given params: message
  counts and sizes, the eq. (2) threshold, transfer volume with a
  payload, and the recommended replication and protocol;
* ``reproduce``  — regenerate every exhibit into CSVs + a Markdown report;
* ``check``      — the static analyzers: ``repro check ARGS`` is
  ``python -m repro.check ARGS``;
* ``trace``      — summarize or diff saved traces; ``verify-trace``
  re-checks a saved run offline;
* ``metrics``    — summarize or diff metric dumps;
* ``soak``       — chaos-soak matrix: sustained drops+spikes+partitions+
  flash crowds over the protocol matrix, with liveness invariants;
* ``serve`` / ``loadgen`` — boot and drive a live TCP cluster;
* ``list``       — protocols and experiments available.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis.model import (
    crossover_write_rate,
    full_replication_message_count,
    full_track_total_size,
    message_count_ratio,
    opt_track_crp_total_size,
    opt_track_total_size,
    optp_total_size,
    partial_replication_message_count,
    recommend,
    transfer_volume,
)
from .core.base import protocol_names, replication_factor_for
from .experiments.exhibits import EXHIBITS, reproduce_all
from .experiments.report import format_kv, format_table, write_csv
from .experiments.runner import SimulationConfig, run_simulation
from .sim.faults import (
    ChannelFaults,
    CrashEvent,
    FaultPlan,
    OverloadEvent,
    Partition,
)
from .sim.reliable import RetransmitPolicy
from .sim.network import (
    AdversarialLatency,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
)
from .verify.causal_checker import check_causal_consistency

__all__ = ["main", "build_parser"]

_LATENCIES = {
    "uniform": UniformLatency,
    "constant": ConstantLatency,
    "lognormal": LogNormalLatency,
    "adversarial": AdversarialLatency,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causal consistency protocols for partially replicated "
                    "DSM (Hsu & Kshemkalyani 2016 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    _add_sim_args(run_p)
    run_p.add_argument("--check", action="store_true",
                       help="record history and verify causal consistency")
    run_p.add_argument("--trace", default=None, metavar="DIR",
                       help="save workload, history, config and the JSONL + "
                            "Chrome traces into DIR, and print the trace "
                            "summary")
    run_p.add_argument("--metrics", default=None, metavar="DIR",
                       help="enable the metrics registry: write "
                            "metrics.prom/.json/.jsonl into DIR, crosscheck "
                            "the metadata-byte ledger, heartbeat on stderr")

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("id", choices=sorted(EXHIBITS))
    exp_p.add_argument("--ops", type=int, default=150,
                       help="operations per process (paper scale: 600)")
    exp_p.add_argument("--seeds", type=int, default=1,
                       help="independent runs averaged per cell")
    exp_p.add_argument("--csv", metavar="PATH", default=None,
                       help="also write the rows to a CSV file")

    rep_p = sub.add_parser("reproduce",
                           help="regenerate all exhibits into an output dir")
    rep_p.add_argument("--outdir", default="results", metavar="DIR")
    rep_p.add_argument("--ops", type=int, default=600,
                       help="operations per process (paper scale: 600)")
    rep_p.add_argument("--seeds", type=int, default=1)
    rep_p.add_argument("--only", nargs="*", default=None, metavar="EXHIBIT",
                       help="restrict to specific exhibits (e.g. fig1 table4)")

    ana_p = sub.add_parser(
        "analytic", help="closed-form model: costs, eq. (2), recommendation")
    ana_p.add_argument("-n", "--sites", type=int, default=10)
    ana_p.add_argument("-p", "--replicas", type=int, default=None)
    ana_p.add_argument("-w", "--write-rate", type=float, default=0.5)
    ana_p.add_argument("--ops", type=int, default=600)
    ana_p.add_argument("--payload", type=float, default=0.0,
                       help="mean payload bytes per update")

    trace_p = sub.add_parser(
        "trace", help="summarize or diff causal execution traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    trace_sum_p = trace_sub.add_parser(
        "summarize", help="tail latencies + slowest causal chains of a trace")
    trace_sum_p.add_argument("trace", metavar="TRACE_JSONL",
                             help="trace file written by `repro run --trace`")
    trace_sum_p.add_argument("--top", type=int, default=3,
                             help="slowest activations to explain")

    trace_diff_p = trace_sub.add_parser(
        "diff", help="compare event counts and tail latencies of two traces")
    trace_diff_p.add_argument("trace_a", metavar="TRACE_A")
    trace_diff_p.add_argument("trace_b", metavar="TRACE_B")

    verify_p = sub.add_parser("verify-trace",
                              help="re-check a saved history offline")
    verify_p.add_argument("outdir", metavar="DIR",
                          help="directory written by `repro run --trace`")

    # every argument after `check` is the analyzer's own (see main)
    sub.add_parser("check", add_help=False,
                   help="static analyzers: `repro check ARGS` is "
                        "`python -m repro.check ARGS`")

    met_p = sub.add_parser("metrics", help="summarize or diff metric dumps")
    met_sub = met_p.add_subparsers(dest="metrics_command", required=True)

    met_sum_p = met_sub.add_parser(
        "summarize", help="render a metrics dump's metadata-byte ledger")
    met_sum_p.add_argument("metrics", metavar="METRICS_JSON",
                           help="metrics.json (or .jsonl) written by "
                                "`repro run --metrics`")
    met_sum_p.add_argument("--window", default="measured",
                           choices=("measured", "lifetime"))

    met_diff_p = met_sub.add_parser(
        "diff", help="numeric per-series diff of two metrics dumps")
    met_diff_p.add_argument("metrics_a", metavar="METRICS_A")
    met_diff_p.add_argument("metrics_b", metavar="METRICS_B")

    soak_p = sub.add_parser(
        "soak",
        help="chaos-soak matrix: sustained faults + flash crowds over the "
             "protocol matrix, holding liveness invariants",
    )
    soak_p.add_argument("--protocols", default=None, metavar="P1,P2",
                        help="comma-separated protocol subset "
                             "(default: all four)")
    soak_p.add_argument("--seeds", default="1,2,3", metavar="S1,S2",
                        help="comma-separated seed list (default: 1,2,3)")
    soak_p.add_argument("-n", "--sites", type=int, default=5)
    soak_p.add_argument("--ops", type=int, default=40,
                        help="operations per process (short horizon)")
    soak_p.add_argument("--out", default=None, metavar="DIR",
                        help="write soak_report.json + per-run metrics "
                             "artifacts into DIR")
    soak_p.add_argument("--no-determinism", action="store_true",
                        help="skip the same-seed double-run check")
    soak_p.add_argument("--no-rto-compare", action="store_true",
                        help="skip the adaptive-vs-fixed RTO comparison")

    serve_p = sub.add_parser(
        "serve",
        help="boot a live TCP cluster: one OS process per site, HTTP "
             "GET/PUT per node (the service substrate)",
    )
    serve_p.add_argument("--topology", default=None, metavar="PATH",
                         help="existing topology JSON (overrides --nodes)")
    serve_p.add_argument("-n", "--nodes", type=int, default=3,
                         help="generate a local loopback topology of N sites")
    serve_p.add_argument("-p", "--protocol", default="opt-track")
    serve_p.add_argument("-q", "--variables", type=int, default=16)
    serve_p.add_argument("--replication-factor", type=int, default=None,
                         help="replicas per variable (default: paper's "
                              "30%% rule)")
    serve_p.add_argument("--base-port", type=int, default=7400)
    serve_p.add_argument("--dir", default="live-cluster", metavar="DIR",
                         help="run directory: topology.json + per-node "
                              "histories and logs (default: ./live-cluster)")
    serve_p.add_argument("--duration", type=float, default=None, metavar="S",
                         help="exit after S seconds (CI); default: run until "
                              "interrupted")

    load_p = sub.add_parser(
        "loadgen",
        help="drive a live cluster with a seeded concurrent workload, "
             "then verify the merged history causally",
    )
    load_p.add_argument("--topology", required=True, metavar="PATH",
                        help="topology JSON of the target cluster "
                             "(serve writes DIR/topology.json)")
    load_p.add_argument("--ops", type=int, default=50,
                        help="operations per site (default 50)")
    load_p.add_argument("--seed", type=int, default=1)
    load_p.add_argument("--write-fraction", type=float, default=0.5)

    node_p = sub.add_parser("_node")  # internal: one live node process
    node_p.add_argument("--topology", required=True)
    node_p.add_argument("--site", type=int, required=True)

    sub.add_parser("list", help="list protocols and experiments")
    return parser


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    """The one declaration of a simulated run, ``run``'s;
    :func:`_config_from_args` reads it back."""
    parser.add_argument("--protocol", default="opt-track",
                        choices=protocol_names())
    parser.add_argument("-n", "--sites", type=int, default=10)
    parser.add_argument("-q", "--vars", type=int, default=100)
    parser.add_argument("-p", "--replicas", type=int, default=None,
                        help="replication factor (default: protocol natural)")
    parser.add_argument("-w", "--write-rate", type=float, default=0.5)
    parser.add_argument("--ops", type=int, default=600,
                        help="operations per process (paper: 600)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency", default="uniform",
                        choices=sorted(_LATENCIES))
    grp = parser.add_argument_group("fault injection")
    grp.add_argument("--drop-rate", type=float, default=0.0, metavar="P",
                     help="per-packet drop probability on every channel")
    grp.add_argument("--dup-rate", type=float, default=0.0, metavar="P",
                     help="per-packet duplication probability")
    grp.add_argument("--partition", default=None, metavar="START:HEAL:SITES",
                     help="cut SITES (comma-separated) off from the rest "
                          "between START and HEAL ms, e.g. 500:2000:0,1")
    grp.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the dedicated fault RNG stream")
    grp.add_argument("--crash-plan", default=None,
                     metavar="AT:RECOVER:SITE[,AT:RECOVER:SITE...]",
                     help="crash SITE at AT ms and restore it at RECOVER ms "
                          "('-' = crash-stop, never recovers), e.g. "
                          "800:1600:2,1200:-:4")
    grp.add_argument("--checkpoint-interval", type=float, default=None,
                     metavar="MS",
                     help="durable checkpoint period (default: 250 ms when "
                          "a crash plan is given, off otherwise)")
    grp.add_argument("--overload-plan", action="append", default=None,
                     metavar="START:END:INTERVAL:SITES",
                     help="flash-crowd event: inject one extra write at each "
                          "of SITES (comma-separated) every INTERVAL ms "
                          "between START and END ms, e.g. 900:2600:25:0,2; "
                          "repeat the flag for multiple events")
    grp.add_argument("--send-window", type=int, default=None, metavar="N",
                     help="bound in-flight packets per channel to N "
                          "(flow control; excess queues in a send backlog)")
    rto = grp.add_mutually_exclusive_group()
    rto.add_argument("--adaptive-rto", dest="adaptive_rto",
                     action="store_true", default=None,
                     help="Jacobson/Karels per-channel RTT-estimated "
                          "retransmission timeout (the default)")
    rto.add_argument("--fixed-rto", dest="adaptive_rto", action="store_false",
                     help="fixed base-RTO retransmission policy (the "
                          "pre-adaptive behaviour)")
    grp.add_argument("--fault-plan-json", default=None, metavar="PATH",
                     help="load the complete fault plan from a JSON file "
                          "(overrides the individual chaos flags)")
    grp.add_argument("--dump-fault-plan", default=None, metavar="PATH",
                     help="write the effective fault plan as JSON and continue")


def _parse_partition(spec: str) -> Partition:
    try:
        start, heal, sites = spec.split(":")
        group = [int(s) for s in sites.split(",") if s]
        return Partition(group, float(start), float(heal))
    except (ValueError, TypeError) as exc:
        raise SystemExit(
            f"invalid --partition {spec!r} (want START:HEAL:SITES, "
            f"e.g. 500:2000:0,1): {exc}"
        )


def _parse_crash_plan(spec: str) -> tuple[CrashEvent, ...]:
    """``AT:RECOVER:SITE`` triples, comma-separated; RECOVER '-' = never."""
    events = []
    for part in spec.split(","):
        if not part:
            continue
        try:
            at, recover, site = part.split(":")
            if recover.strip() == "-":
                events.append(CrashEvent(int(site), float(at)))
            else:
                events.append(CrashEvent(int(site), float(at), float(recover)))
        except (ValueError, TypeError) as exc:
            raise SystemExit(
                f"invalid --crash-plan entry {part!r} (want AT:RECOVER:SITE, "
                f"e.g. 800:1600:2 or 1200:-:4): {exc}"
            )
    return tuple(events)


def _parse_overload(spec: str) -> OverloadEvent:
    try:
        start, end, interval, sites = spec.split(":")
        group = [int(s) for s in sites.split(",") if s]
        return OverloadEvent(group, float(start), float(end), float(interval))
    except (ValueError, TypeError) as exc:
        raise SystemExit(
            f"invalid --overload-plan {spec!r} (want START:END:INTERVAL:SITES,"
            f" e.g. 900:2600:25:0,2): {exc}"
        )


def _retransmit_from_args(args: argparse.Namespace) -> Optional[RetransmitPolicy]:
    """None unless a transport knob was set (keeps the default policy)."""
    if args.send_window is None and args.adaptive_rto is None:
        return None
    kwargs: dict = {}
    if args.send_window is not None:
        kwargs["send_window"] = args.send_window
    if args.adaptive_rto is not None:
        kwargs["adaptive"] = args.adaptive_rto
    try:
        return RetransmitPolicy(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"invalid retransmit policy: {exc}")


def _fault_plan_from_args(args: argparse.Namespace) -> Optional[FaultPlan]:
    """None unless some chaos knob was set (keeps the zero-overhead path)."""
    plan: Optional[FaultPlan]
    if args.fault_plan_json:
        try:
            plan = FaultPlan.from_json(Path(args.fault_plan_json).read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"cannot load --fault-plan-json: {exc}")
    else:
        partitions = (_parse_partition(args.partition),) if args.partition else ()
        crashes = _parse_crash_plan(args.crash_plan) if args.crash_plan else ()
        overloads = tuple(
            _parse_overload(spec) for spec in (args.overload_plan or ())
        )
        if not (args.drop_rate or args.dup_rate or partitions or crashes
                or overloads):
            plan = None
        else:
            try:
                plan = FaultPlan.build(
                    default=ChannelFaults(drop_rate=args.drop_rate,
                                          dup_rate=args.dup_rate),
                    partitions=partitions,
                    crashes=crashes,
                    overloads=overloads,
                )
            except ValueError as exc:
                raise SystemExit(f"invalid fault plan: {exc}")
    return plan


def _require(ok: bool, flag: str, value: object, want: str) -> None:
    """A one-line exit naming ``flag`` unless ``ok``."""
    if not ok:
        raise SystemExit(f"invalid {flag} {value!r}: want {want}")


def _require_cell(args: argparse.Namespace, *, min_sites: int = 1) -> None:
    """``-n`` / ``-w`` / ``-p`` of a verb that simulates or models a cell."""
    _require(args.sites >= min_sites, "-n/--sites", args.sites,
             f"at least {min_sites}")
    _require(0.0 <= args.write_rate <= 1.0, "-w/--write-rate",
             args.write_rate, "a rate in [0, 1]")
    _require(args.replicas is None or 1 <= args.replicas <= args.sites,
             "-p/--replicas", args.replicas, f"1 to {args.sites} (-n)")


def _require_replication(protocol: str, n_sites: int, p: Optional[int],
                         flag: str) -> None:
    """A one-line exit naming ``flag`` unless ``protocol`` can run at
    ``p`` replicas of ``n_sites`` (the rule both substrates place by)."""
    try:
        replication_factor_for(protocol, n_sites, p)
    except ValueError as exc:
        raise SystemExit(f"invalid {flag} {p!r}: {exc}")


def _require_plan_sites(plan: Optional[FaultPlan],
                        args: argparse.Namespace) -> None:
    """Every site a fault names exists."""
    if plan is None:
        return
    for flag, value, sites in (
        ("--crash-plan", args.crash_plan, [ev.site for ev in plan.crashes]),
        ("--partition", args.partition,
         [s for p in plan.partitions for s in p.group]),
        ("--overload-plan", args.overload_plan,
         [s for ev in plan.overloads for s in ev.sites]),
    ):
        if args.fault_plan_json:
            flag, value = "--fault-plan-json", args.fault_plan_json
        _require(all(s < args.sites for s in sites), flag, value,
                 f"site ids below {args.sites}")


def _config_from_args(args: argparse.Namespace,
                      **overrides: object) -> SimulationConfig:
    """The :class:`SimulationConfig` :func:`_add_sim_args` describes."""
    _require_cell(args)
    _require(args.vars >= 1, "-q/--vars", args.vars, "at least 1")
    _require(args.ops >= 1, "--ops", args.ops, "at least 1")
    _require_replication(args.protocol, args.sites, args.replicas,
                         "-p/--replicas")
    _require(args.checkpoint_interval is None or args.checkpoint_interval > 0,
             "--checkpoint-interval", args.checkpoint_interval,
             "a positive period in ms")
    plan = _fault_plan_from_args(args)
    _require_plan_sites(plan, args)
    cfg = SimulationConfig(
        protocol=args.protocol,
        n_sites=args.sites,
        n_vars=args.vars,
        replication_factor=args.replicas,
        write_rate=args.write_rate,
        ops_per_process=args.ops,
        seed=args.seed,
        latency=_LATENCIES[args.latency](),
        fault_plan=plan,
        fault_seed=args.fault_seed,
        retransmit=_retransmit_from_args(args),
        checkpoint_interval_ms=args.checkpoint_interval,
        **overrides,
    )
    if args.dump_fault_plan:
        # only once every check above has passed
        dumped = plan if plan is not None else FaultPlan.build()
        Path(args.dump_fault_plan).write_text(dumped.to_json(indent=2))
        print(f"fault plan written to {args.dump_fault_plan}")
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(
        args, record_history=args.check or args.trace is not None)
    tracer = registry = heartbeat = None
    if args.trace is not None:
        from .obs import Tracer

        tracer = Tracer()
    if args.metrics is not None:
        from .obs.export import HeartbeatReporter
        from .obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        heartbeat = HeartbeatReporter(registry=registry)
    result = run_simulation(cfg, tracer=tracer, registry=registry,
                            heartbeat=heartbeat)
    print(format_kv(result.summary()))
    _print_crash_stats(result)
    ok = True
    if tracer is not None:
        _write_trace_outputs(result, tracer, args.trace)
    if registry is not None:
        ok = _write_metrics_outputs(registry, args.metrics, cfg)
    if args.check:
        assert result.history is not None  # recorded under --check
        report = check_causal_consistency(result.history, result.placement)
        print(f"\ncausal consistency: {'OK' if report.ok else 'VIOLATED'} "
              f"({report.n_operations} operations, {report.n_applies} applies)")
        if not report.ok:
            print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _require_runs(args: argparse.Namespace) -> None:
    """``--ops`` / ``--seeds`` of the exhibit verbs."""
    _require(args.ops >= 1, "--ops", args.ops, "at least 1")
    _require(args.seeds >= 1, "--seeds", args.seeds, "at least 1")


def _cmd_experiment(args: argparse.Namespace) -> int:
    _require_runs(args)
    if args.csv:
        # before the sweep, not after it
        _require(Path(args.csv).parent.is_dir(), "--csv", args.csv,
                 "a file in an existing directory")
    exhibit = EXHIBITS[args.id]
    rows = exhibit.rows(ops_per_process=args.ops, seeds=tuple(range(args.seeds)))
    print(format_table(rows, title=f"{args.id}: {exhibit.title}"))
    if args.csv:
        write_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} rows to {args.csv}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    _require_runs(args)
    report = reproduce_all(
        args.outdir,
        ops_per_process=args.ops,
        seeds=tuple(range(args.seeds)),
        exhibits=args.only,
        progress=lambda line: print(line, flush=True),
    )
    print(f"\nreport written to {report}")
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
    _require_cell(args, min_sites=2)
    _require(args.ops >= 1, "--ops", args.ops, "at least 1")
    _require(args.payload >= 0, "--payload", args.payload, "at least 0 bytes")
    n = args.sites
    p = args.replicas
    if p is None:
        from .memory.replication import paper_replication_factor

        p = paper_replication_factor(n)
    w = args.write_rate * args.ops
    r = (1 - args.write_rate) * args.ops
    print(f"n={n} p={p} writes={w:.0f} reads={r:.0f}")
    print(f"partial message count : {partial_replication_message_count(n, p, w, r):.1f}")
    print(f"full message count    : {full_replication_message_count(n, w):.1f}")
    for name, cb in [
        ("full-track", full_track_total_size(n, p, w, r)),
        ("opt-track", opt_track_total_size(n, p, w, r)),
        ("opt-track-crp", opt_track_crp_total_size(n, w)),
        ("optp", optp_total_size(n, w)),
    ]:
        print(f"{name:14s}: {cb.total_count:10.1f} msgs  {cb.total_bytes/1000:12.1f} KB")
    threshold = crossover_write_rate(n)
    count_says = "partial" if args.write_rate > threshold else "full"
    partial, full = transfer_volume(n, p, w, r, args.payload)
    replication, protocol = recommend(n, p, w, r, args.payload)
    print(f"eq. (2) threshold     : w_rate > 2/(n+1) = {threshold:.3f}; at "
          f"{args.write_rate:.2f} {count_says} replication sends fewer messages")
    print(f"message ratio         : {message_count_ratio(n, p, args.write_rate):.2f}"
          " (partial / full)")
    print(f"transfer              : partial {partial/1e6:.2f} MB vs full "
          f"{full/1e6:.2f} MB ({args.payload:.0f} B payload per update)")
    print(f"storage               : {p} vs {n} copies per object")
    print(f"remote reads          : {(n - p) / n:.0%} of reads (partial replication)")
    split = ("; criteria split, transfer volume decides (it includes the payload)"
             if count_says != replication else "")
    print(f"recommended           : {replication} replication, protocol {protocol}{split}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "summarize": _cmd_trace_summarize,
        "diff": _cmd_trace_diff,
    }
    return handlers[args.trace_command](args)


def _write_trace_outputs(result, tracer, outdir: str) -> None:
    """``run --trace``: the saved run (workload, history, config) beside
    its JSONL + Chrome traces, then the Opt-Track log report and the
    trace summary on stdout."""
    from .obs import summarize_trace, write_chrome, write_jsonl
    from .workload.traces import save_history, save_workload

    cfg = result.config
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_workload(result.workload, out / "workload.json")
    save_history(result.history, out / "history.jsonl")
    (out / "config.json").write_text(json.dumps({
        "protocol": cfg.protocol,
        "n_sites": cfg.n_sites,
        "n_vars": cfg.n_vars,
        "replication_factor": result.placement.replication_factor,
        "write_rate": cfg.write_rate,
        "ops_per_process": cfg.ops_per_process,
        "seed": cfg.seed,
    }))
    trace = tracer.to_trace()
    write_jsonl(trace, out / "trace.jsonl")
    write_chrome(trace, out / "trace_chrome.json")
    print(f"saved workload, history ({len(result.history)} events), trace "
          f"({len(trace.events)} spans), and config to {out}")
    print(f"open {out / 'trace_chrome.json'} in https://ui.perfetto.dev "
          "to browse the per-site timeline")
    if cfg.protocol in ("opt-track", "opt-track-noprune"):
        from .analysis.logstats import format_log_report, snapshot_logs

        print()
        print(format_log_report(snapshot_logs(result.protocols)))
    print()
    print(summarize_trace(trace))


#: what a missing or malformed saved file raises while being read
_BAD_FILE = (OSError, ValueError, KeyError, TypeError, AttributeError)


def _load_trace(path: str):
    """A saved JSONL trace, or a one-line exit naming the bad file."""
    from .obs import load_trace

    try:
        return load_trace(path)
    except _BAD_FILE as exc:
        raise SystemExit(
            f"cannot load trace {path!r}: {type(exc).__name__}: {exc}")


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import summarize_trace

    _require(args.top >= 0, "--top", args.top, "at least 0")
    print(summarize_trace(_load_trace(args.trace), top=args.top))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs import diff_traces

    print(diff_traces(_load_trace(args.trace_a), _load_trace(args.trace_b)))
    return 0


def _write_metrics_outputs(registry, outdir: str,
                           cfg: SimulationConfig) -> bool:
    """``run --metrics``: export ``metrics.prom`` / ``metrics.json`` /
    ``metrics.jsonl``, then print the ledger crosscheck and table; False
    on a ledger MISMATCH."""
    from .obs.export import (
        append_snapshot_jsonl,
        ledger_table,
        write_prometheus,
        write_snapshot_json,
    )

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "protocol": cfg.protocol,
        "n_sites": cfg.n_sites,
        "ops_per_process": cfg.ops_per_process,
        "seed": cfg.seed,
    }
    write_prometheus(registry, out / "metrics.prom")
    write_snapshot_json(registry, out / "metrics.json", meta=meta)
    with open(out / "metrics.jsonl", "w") as fh:
        append_snapshot_jsonl(registry, fh, meta=meta)
    print(f"metrics written to {out} (metrics.prom, metrics.json, "
          f"metrics.jsonl)")
    problems = registry.ledger.crosscheck()
    print("ledger crosscheck (components vs priced bytes): "
          + ("OK" if not problems else "MISMATCH"))
    for p in problems:
        print(f"  {p}")
    print()
    print("metadata bytes by component (measured window):")
    print(ledger_table(registry.ledger))
    return not problems


def _load_metrics_snapshot(path: str) -> dict:
    """Load a metrics dump: a plain snapshot JSON or the last snapshot
    line of a JSONL stream."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read metrics dump {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        return data
    snap = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and obj.get("type", "snapshot") == "snapshot":
            snap = obj
    if snap is None:
        raise SystemExit(f"no metrics snapshot found in {path!r}")
    return snap


def _cmd_metrics(args: argparse.Namespace) -> int:
    handlers = {
        "summarize": _cmd_metrics_summarize,
        "diff": _cmd_metrics_diff,
    }
    return handlers[args.metrics_command](args)


def _cmd_metrics_summarize(args: argparse.Namespace) -> int:
    from .obs.export import ledger_table
    from .obs.ledger import MetadataLedger

    snap = _load_metrics_snapshot(args.metrics)
    meta = snap.get("meta", {})
    if meta:
        print("meta: " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(meta.items())))
    ledger = MetadataLedger.from_dict(snap.get("ledger", {}))
    print(f"metadata bytes by component ({args.window} window):")
    print(ledger_table(ledger, window=args.window))
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    from .obs.export import diff_snapshots

    lines = diff_snapshots(_load_metrics_snapshot(args.metrics_a),
                           _load_metrics_snapshot(args.metrics_b))
    if not lines:
        print("metric dumps are identical")
        return 0
    for line in lines:
        print(line)
    return 0


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    from .experiments.runner import build_placement
    from .memory.replication import require_round_robin
    from .workload.traces import load_history

    out = Path(args.outdir)
    try:
        config = json.loads((out / "config.json").read_text())
        require_round_robin(config)
        history = load_history(out / "history.jsonl")
        placement = build_placement(SimulationConfig(
            protocol=config["protocol"], n_sites=config["n_sites"],
            n_vars=config["n_vars"],
            replication_factor=config["replication_factor"],
        ))
    except _BAD_FILE as exc:
        raise SystemExit(f"cannot load saved run {args.outdir!r}: "
                         f"{type(exc).__name__}: {exc}")
    report = check_causal_consistency(history, placement)
    status = "OK" if report.ok else "VIOLATED"
    print(f"{config['protocol']} trace: causal consistency {status} "
          f"({report.n_writes} writes, {report.n_reads} reads, "
          f"{report.n_applies} applies)")
    if not report.ok:
        print(report.render())
    return 0 if report.ok else 1


def _print_crash_stats(result) -> None:
    """One summary line per crash-recovery aspect (silent when inactive)."""
    if result.crash_manager is None:
        return
    col = result.collector
    detector = result.crash_manager.detector
    print(f"crash-recovery: {col.crashes} crashes, "
          f"{col.checkpoints_taken} checkpoints, "
          f"mean downtime {col.downtime.mean:.0f} ms, "
          f"mean detection {col.detection_latency.mean:.0f} ms, "
          f"mean catch-up {col.catchup_latency.mean:.0f} ms")
    print(f"  wal: mean {col.wal_replays.mean:.0f} records replayed/restore; "
          f"detector: {detector.heartbeats_sent if detector else 0} heartbeats, "
          f"{col.false_suspicions} false suspicions; "
          f"{col.sync_messages} sync msgs; "
          f"{col.lost_ops} ops lost (crash-stop)")


def _cmd_list(_: argparse.Namespace) -> int:
    print("protocols:")
    for name in protocol_names():
        print(f"  {name}")
    print("\nexperiments:")
    for key in sorted(EXHIBITS):
        print(f"  {key:8s} {EXHIBITS[key].title}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .soak import SOAK_PROTOCOLS, soak_matrix

    if args.protocols:
        protocols = tuple(p for p in args.protocols.split(",") if p)
        unknown = [p for p in protocols if p not in protocol_names()]
        if unknown:
            raise SystemExit(f"unknown protocol(s): {', '.join(unknown)}")
    else:
        protocols = SOAK_PROTOCOLS
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    except ValueError as exc:
        raise SystemExit(f"invalid --seeds {args.seeds!r}: {exc}")
    if not seeds:
        raise SystemExit("--seeds must name at least one seed")
    _require(args.sites >= 2, "-n/--sites", args.sites, "at least 2")
    _require(args.ops >= 1, "--ops", args.ops, "at least 1")

    report = soak_matrix(
        protocols, seeds,
        n_sites=args.sites, ops=args.ops,
        check_determinism=not args.no_determinism,
        compare_rto=not args.no_rto_compare,
        out_dir=Path(args.out) if args.out else None,
    )
    for cell in report.cells:
        status = "ok" if cell.ok and cell.deterministic else "FAIL"
        print(f"soak {cell.protocol:14s} seed={cell.seed:<3d} {status}")
        for problem in cell.problems:
            print(f"    {problem}")
    if report.rto_comparison is not None:
        comp = report.rto_comparison
        print(f"rto comparison: fixed spurious="
              f"{comp['fixed']['spurious_retransmissions']:.0f} "
              f"adaptive spurious="
              f"{comp['adaptive']['spurious_retransmissions']:.0f} "
              f"adaptive_fewer={comp['adaptive_fewer_spurious']}")
    if args.out:
        print(f"soak report written to {Path(args.out) / 'soak_report.json'}")
    print(f"soak: {'PASS' if report.ok else 'FAIL'} "
          f"({len(report.cells)} cells)")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal
    import subprocess
    import time

    import repro
    from .service.bootstrap import (
        default_topology, load_topology, save_topology,
    )
    from .service.loadgen import HttpSession

    run_dir = Path(args.dir)
    if args.topology:
        try:
            topology = load_topology(args.topology)
        except _BAD_FILE as exc:
            raise SystemExit(f"cannot load --topology {args.topology!r}: "
                             f"{type(exc).__name__}: {exc}")
    else:
        if args.protocol not in protocol_names():
            raise SystemExit(f"unknown protocol {args.protocol!r}")
        _require(args.nodes >= 1, "-n/--nodes", args.nodes, "at least 1")
        _require(args.variables >= 1, "-q/--variables", args.variables,
                 "at least 1")
        _require_replication(args.protocol, args.nodes,
                             args.replication_factor, "--replication-factor")
        topology = default_topology(
            args.nodes,
            protocol=args.protocol,
            n_vars=args.variables,
            replication_factor=args.replication_factor,
            base_port=args.base_port,
            history_dir=str(run_dir),
        )
    run_dir.mkdir(parents=True, exist_ok=True)
    topo_path = run_dir / "topology.json"
    save_topology(topology, topo_path)

    # child processes must find the same `repro` package this process
    # imported, whether it came from an install or a source tree
    env = os.environ.copy()
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    procs = []
    logs = []

    def _on_sigterm(signum: int, _frame: object) -> None:
        raise SystemExit(128 + signum)  # through the finally: nodes stop too

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        for spec in topology.nodes:
            log = (run_dir / f"node-{spec.site}.log").open("w")
            logs.append(log)
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "_node",
                 "--topology", str(topo_path), "--site", str(spec.site)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            ))

        async def _ready() -> bool:
            """Every node answers and lists a link to each of its peers,
            so a first PUT does not race the dials."""
            session = HttpSession()
            try:
                for spec in topology.nodes:
                    status, body = await session.request(
                        spec.host, spec.http_port, "GET", "/status"
                    )
                    if (status != 200 or len(json.loads(body)["peer_links"])
                            != topology.n_sites - 1):
                        return False
            except (ConnectionError, OSError):
                return False
            finally:
                session.close()
            return True

        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in procs):
                raise SystemExit(
                    f"a node process exited during startup; "
                    f"see {run_dir}/node-*.log"
                )
            if asyncio.run(_ready()):
                break
            time.sleep(0.1)
        else:
            raise SystemExit(f"cluster not ready after 15s; see {run_dir}")

        print(f"cluster up: {topology.n_sites} nodes, "
              f"protocol={topology.protocol}, topology={topo_path}")
        for spec in topology.nodes:
            print(f"  site {spec.site}: "
                  f"http://{spec.host}:{spec.http_port}  "
                  f"(peer port {spec.peer_port})")
        print(f'try: curl -X PUT -d \'{{"value": 41}}\' '
              f"http://{topology.node(0).host}:"
              f"{topology.node(0).http_port}/kv/0")
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            try:
                while all(p.poll() is None for p in procs):
                    time.sleep(0.5)
            except KeyboardInterrupt:
                pass
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
        for log in logs:
            log.close()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service.bootstrap import load_topology
    from .service.loadgen import run_loadgen

    try:
        topology = load_topology(args.topology)
    except _BAD_FILE as exc:
        raise SystemExit(f"cannot load --topology {args.topology!r}: "
                         f"{type(exc).__name__}: {exc}")
    report = run_loadgen(
        topology, ops=args.ops, seed=args.seed,
        write_fraction=args.write_fraction,
    )
    print(f"loadgen: {report.ops_attempted} ops "
          f"({report.writes} writes, {report.reads} reads, "
          f"{report.shed} shed) across {topology.n_sites} sites")
    rate = report.ops_attempted / report.elapsed_s if report.elapsed_s else 0.0
    print(f"rate: {rate:.0f} ops/s over {report.elapsed_s:.2f} s, "
          f"{report.connections} connections opened")
    print(f"history: {report.events} events, "
          f"quiesced={report.quiesced}, "
          f"violations={sum(report.totals.values())}")
    for err in report.errors:
        print(f"  error: {err}")
    for violation in report.violations[:10]:
        print(f"  violation: {violation}")
    print(f"loadgen: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _cmd_node(args: argparse.Namespace) -> int:
    from .service.bootstrap import load_topology
    from .service.node import run_node

    run_node(load_topology(args.topology), args.site)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "check":
        # one parser: the analyzer's own reads every argument after `check`
        from .check.cli import main as check_main

        return check_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "reproduce": _cmd_reproduce,
        "trace": _cmd_trace,
        "verify-trace": _cmd_verify_trace,
        "analytic": _cmd_analytic,
        "metrics": _cmd_metrics,
        "soak": _cmd_soak,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "_node": _cmd_node,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly
        return 0


if __name__ == "__main__":
    sys.exit(main())
