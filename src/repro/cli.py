"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``run``        — one simulation, printing the metric summary;
* ``experiment`` — regenerate a paper table/figure (fig1..fig8, table2,
  table3, table4, eq2) at a chosen scale;
* ``analytic``   — print the closed-form cost models for given params;
* ``crossover``  — the eq. (2) partial-vs-full threshold table;
* ``reproduce``  — regenerate every exhibit into CSVs + a Markdown report;
* ``advise``     — replication recommendation for a workload profile;
* ``check``      — run a simulation with history recording and verify
  causal consistency;
* ``metrics``    — run with the metrics registry on (Prometheus/JSON
  exports + metadata-byte ledger), summarize a dump, or diff two dumps;
* ``soak``       — chaos-soak matrix: sustained drops+spikes+partitions+
  flash crowds over the protocol matrix, with liveness invariants;
* ``list``       — protocols and experiments available.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis.model import (
    full_replication_message_count,
    full_track_total_size,
    opt_track_crp_total_size,
    opt_track_total_size,
    optp_total_size,
    partial_replication_message_count,
)
from .analysis.tradeoff import crossover_write_rate
from .core.base import protocol_names
from .experiments.exhibits import EXHIBITS, reproduce_all
from .experiments.report import format_kv, format_table, write_csv
from .experiments.runner import SimulationConfig, run_simulation
from .memory.replication import PLACEMENT_NAMES
from .sim.faults import (
    ChannelFaults,
    CrashEvent,
    FaultPlan,
    OverloadEvent,
    Partition,
    seeded_churn,
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
    _add_sim_args(run_p, sites=10, vars=100, ops=600, latency="uniform")
    run_p.add_argument("--check", action="store_true",
                       help="record history and verify causal consistency")
    run_p.add_argument("--metrics-dir", default=None, metavar="DIR",
                       help="enable the metrics registry and write "
                            "metrics.prom/.json/.jsonl into DIR")

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

    adv_p = sub.add_parser("advise", help="replication recommendation")
    adv_p.add_argument("-n", "--sites", type=int, required=True)
    adv_p.add_argument("-w", "--write-rate", type=float, required=True)
    adv_p.add_argument("--payload", type=float, default=0.0,
                       help="mean payload bytes per update")
    adv_p.add_argument("-p", "--replicas", type=int, default=None)

    ana_p = sub.add_parser("analytic", help="closed-form cost models")
    ana_p.add_argument("-n", "--sites", type=int, default=10)
    ana_p.add_argument("-p", "--replicas", type=int, default=None)
    ana_p.add_argument("-w", "--write-rate", type=float, default=0.5)
    ana_p.add_argument("--ops", type=int, default=600)

    cross_p = sub.add_parser("crossover", help="eq. (2) thresholds")
    cross_p.add_argument("--max-n", type=int, default=40)

    trace_p = sub.add_parser(
        "trace", help="record, summarize, or diff causal execution traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    trace_run_p = trace_sub.add_parser(
        "run", help="run a traced simulation, exporting JSONL + Chrome traces")
    trace_run_p.add_argument("outdir", metavar="DIR")
    _add_sim_args(trace_run_p, sites=6, vars=20, ops=100, latency="uniform")
    trace_run_p.add_argument("--top", type=int, default=3,
                             help="slowest activations to explain in the summary")

    trace_sum_p = trace_sub.add_parser(
        "summarize", help="tail latencies + slowest causal chains of a trace")
    trace_sum_p.add_argument("trace", metavar="TRACE_JSONL",
                             help="trace file written by `repro trace run`")
    trace_sum_p.add_argument("--top", type=int, default=3,
                             help="slowest activations to explain")

    trace_diff_p = trace_sub.add_parser(
        "diff", help="compare event counts and tail latencies of two traces")
    trace_diff_p.add_argument("trace_a", metavar="TRACE_A")
    trace_diff_p.add_argument("trace_b", metavar="TRACE_B")

    verify_p = sub.add_parser("verify-trace",
                              help="re-check a saved history offline")
    verify_p.add_argument("outdir", metavar="DIR",
                          help="directory written by `repro trace`")

    check_p = sub.add_parser("check", help="simulate + verify causal consistency")
    _add_sim_args(check_p, sites=8, vars=20, ops=100, latency="adversarial")
    check_p.add_argument("--metrics-dir", default=None, metavar="DIR",
                         help="enable the metrics registry and write "
                              "metrics.prom/.json/.jsonl into DIR")
    static = check_p.add_argument_group(
        "static analysis",
        "run the whole-program analyzers instead of a simulation "
        "(delegates to `python -m repro.check`)")
    static.add_argument("--effects", action="store_true",
                        help="effect inference (EFF001..EFF003) + baseline")
    static.add_argument("--layers", action="store_true",
                        help="layer-contract check (LAY001..LAY003)")
    static.add_argument("--write-baseline", action="store_true",
                        help="regenerate EFFECTS_BASELINE.json")
    static.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", dest="static_format",
                        help="finding output format (default: human)")
    static.add_argument("--report", default=None, metavar="PATH",
                        dest="static_report",
                        help="write the JSON/SARIF report to PATH")

    met_p = sub.add_parser(
        "metrics", help="run with metrics on, summarize or diff metric dumps")
    met_sub = met_p.add_subparsers(dest="metrics_command", required=True)

    met_run_p = met_sub.add_parser(
        "run", help="run one simulation with the full metrics registry, "
                    "exporting Prometheus text + JSON snapshots")
    met_run_p.add_argument("outdir", metavar="DIR")
    _add_sim_args(met_run_p, sites=6, vars=20, ops=100, latency="uniform")
    met_run_p.add_argument("--heartbeat-ms", type=float, default=1000.0,
                           metavar="MS",
                           help="live heartbeat period on stderr (0 = off)")

    met_sum_p = met_sub.add_parser(
        "summarize", help="render a metrics dump's metadata-byte ledger")
    met_sum_p.add_argument("metrics", metavar="METRICS_JSON",
                           help="metrics.json (or .jsonl) written by "
                                "`repro metrics run`")
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
    serve_p.add_argument("--placement", default="round-robin",
                         choices=PLACEMENT_NAMES)
    serve_p.add_argument("--seed", type=int, default=0)
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


def _add_sim_args(parser: argparse.ArgumentParser, *, sites: int, vars: int,
                  ops: int, latency: str) -> None:
    """The one declaration of a simulated run, shared by ``run``,
    ``check``, ``trace run`` and ``metrics run``; each verb passes its
    own defaults.  :func:`_config_from_args` reads it back."""
    parser.add_argument("--protocol", default="opt-track",
                        choices=protocol_names())
    parser.add_argument("-n", "--sites", type=int, default=sites)
    parser.add_argument("-q", "--vars", type=int, default=vars)
    parser.add_argument("-p", "--replicas", type=int, default=None,
                        help="replication factor (default: protocol natural)")
    parser.add_argument("-w", "--write-rate", type=float, default=0.5)
    parser.add_argument("--ops", type=int, default=ops,
                        help="operations per process (paper: 600)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency", default=latency,
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
    grp.add_argument("--churn-joins", type=int, default=0, metavar="N",
                     help="number of seeded site joins (elastic membership)")
    grp.add_argument("--churn-leaves", type=int, default=0, metavar="N",
                     help="number of seeded graceful site leaves")
    grp.add_argument("--churn-seed", type=int, default=0,
                     help="seed of the membership-churn schedule")
    grp.add_argument("--churn-window", default=None, metavar="START:END",
                     help="ms window churn events fall in (default 500:3000)")
    grp.add_argument("--auto-evict", type=float, default=None, metavar="MS",
                     help="evict a crash-stopped site MS after the failure "
                          "detector first suspects it")
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
    send_window = getattr(args, "send_window", None)
    adaptive = getattr(args, "adaptive_rto", None)
    if send_window is None and adaptive is None:
        return None
    kwargs: dict = {}
    if send_window is not None:
        kwargs["send_window"] = send_window
    if adaptive is not None:
        kwargs["adaptive"] = adaptive
    try:
        return RetransmitPolicy(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"invalid retransmit policy: {exc}")


def _parse_churn_window(spec: Optional[str]) -> tuple[float, float]:
    if spec is None:
        return (500.0, 3000.0)
    try:
        start, end = spec.split(":")
        return (float(start), float(end))
    except (ValueError, TypeError) as exc:
        raise SystemExit(
            f"invalid --churn-window {spec!r} (want START:END ms): {exc}"
        )


def _fault_plan_from_args(args: argparse.Namespace) -> Optional[FaultPlan]:
    """None unless some chaos knob was set (keeps the zero-overhead path)."""
    plan: Optional[FaultPlan]
    if args.fault_plan_json:
        from pathlib import Path

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
        membership = ()
        if args.churn_joins or args.churn_leaves:
            try:
                membership = seeded_churn(
                    args.sites,
                    n_joins=args.churn_joins,
                    n_leaves=args.churn_leaves,
                    window_ms=_parse_churn_window(args.churn_window),
                    seed=args.churn_seed,
                    # a site cannot both crash and gracefully leave
                    avoid={c.site for c in crashes},
                )
            except ValueError as exc:
                raise SystemExit(f"invalid churn plan: {exc}")
        if not (args.drop_rate or args.dup_rate or partitions or crashes
                or membership or overloads):
            plan = None
        else:
            try:
                plan = FaultPlan.build(
                    default=ChannelFaults(drop_rate=args.drop_rate,
                                          dup_rate=args.dup_rate),
                    partitions=partitions,
                    crashes=crashes,
                    membership=membership,
                    overloads=overloads,
                )
            except ValueError as exc:
                raise SystemExit(f"invalid fault plan: {exc}")
    if args.dump_fault_plan:
        from pathlib import Path

        dumped = plan if plan is not None else FaultPlan.build()
        Path(args.dump_fault_plan).write_text(dumped.to_json(indent=2))
        print(f"fault plan written to {args.dump_fault_plan}")
    return plan


def _config_from_args(args: argparse.Namespace,
                      **overrides: object) -> SimulationConfig:
    """The :class:`SimulationConfig` :func:`_add_sim_args` describes."""
    return SimulationConfig(
        protocol=args.protocol,
        n_sites=args.sites,
        n_vars=args.vars,
        replication_factor=args.replicas,
        write_rate=args.write_rate,
        ops_per_process=args.ops,
        seed=args.seed,
        latency=_LATENCIES[args.latency](),
        fault_plan=_fault_plan_from_args(args),
        fault_seed=args.fault_seed,
        retransmit=_retransmit_from_args(args),
        checkpoint_interval_ms=args.checkpoint_interval,
        auto_evict_after_ms=args.auto_evict,
        **overrides,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, record_history=args.check)
    registry = _registry_from_args(args)
    result = run_simulation(cfg, registry=registry)
    print(format_kv(result.summary()))
    _print_crash_stats(result)
    _print_membership_stats(result)
    if registry is not None:
        _write_metrics_outputs(registry, args.metrics_dir, cfg)
    if args.check:
        report = check_causal_consistency(result.history, result.placement)
        print(f"\ncausal consistency: {'OK' if report.ok else 'VIOLATED'} "
              f"({report.n_operations} operations, {report.n_applies} applies)")
        if not report.ok:
            for v in report.violations[:20]:
                print(f"  {v}")
            return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    exhibit = EXHIBITS[args.id]
    rows = exhibit.rows(ops_per_process=args.ops, seeds=tuple(range(args.seeds)))
    print(format_table(rows, title=f"{args.id}: {exhibit.title}"))
    if args.csv:
        write_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} rows to {args.csv}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    report = reproduce_all(
        args.outdir,
        ops_per_process=args.ops,
        seeds=tuple(range(args.seeds)),
        exhibits=args.only,
        progress=lambda line: print(line, flush=True),
    )
    print(f"\nreport written to {report}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .analysis.advisor import WorkloadProfile, recommend_replication

    rec = recommend_replication(WorkloadProfile(
        n_sites=args.sites,
        write_rate=args.write_rate,
        payload_bytes=args.payload,
        replication_factor=args.replicas,
    ))
    print(f"recommendation: {rec.replication} replication, "
          f"protocol {rec.protocol}")
    print(f"  messages   : partial {rec.partial_messages:.0f} vs "
          f"full {rec.full_messages:.0f} (ratio {rec.message_ratio:.2f})")
    print(f"  transfer   : partial {rec.partial_transfer_bytes/1e6:.2f} MB vs "
          f"full {rec.full_transfer_bytes/1e6:.2f} MB")
    print(f"  storage    : {rec.storage_copies_partial} vs "
          f"{rec.storage_copies_full} copies per object")
    print(f"  remote read: {rec.remote_read_fraction:.0%} of reads "
          "(partial replication)")
    print("rationale:")
    for line in rec.rationale:
        print(f"  - {line}")
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
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
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    rows = [
        {"n": n, "threshold_write_rate": crossover_write_rate(n)}
        for n in range(2, args.max_n + 1)
        if n in (2, 3, 4, 5, 8, 10, 15, 20, 30, args.max_n)
    ]
    print(format_table(rows, title="eq. (2): partial wins iff w_rate > 2/(n+1)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_trace_run,
        "summarize": _cmd_trace_summarize,
        "diff": _cmd_trace_diff,
    }
    return handlers[args.trace_command](args)


def _cmd_trace_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import Tracer, summarize_trace, write_chrome, write_jsonl
    from .workload.traces import save_history, save_workload

    cfg = _config_from_args(args, record_history=True)
    tracer = Tracer()
    result = run_simulation(cfg, tracer=tracer)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_workload(result.workload, out / "workload.json")
    save_history(result.history, out / "history.jsonl")
    (out / "config.json").write_text(json.dumps({
        "protocol": cfg.protocol,
        "n_sites": cfg.n_sites,
        "n_vars": cfg.n_vars,
        "replication_factor": result.placement.replication_factor,
        "placement": cfg.placement,
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
    if args.protocol in ("opt-track", "opt-track-noprune"):
        from .analysis.logstats import format_log_report, snapshot_logs

        print()
        print(format_log_report(snapshot_logs(result.protocols)))
    print()
    print(summarize_trace(trace, top=args.top))
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import load_trace, summarize_trace

    print(summarize_trace(load_trace(args.trace), top=args.top))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs import diff_traces, load_trace

    print(diff_traces(load_trace(args.trace_a), load_trace(args.trace_b)))
    return 0


def _registry_from_args(args: argparse.Namespace):
    """A fresh registry when ``--metrics-dir`` was given, else ``None``
    (the zero-overhead path)."""
    if getattr(args, "metrics_dir", None) is None:
        return None
    from .obs.metrics import MetricsRegistry

    return MetricsRegistry()


def _write_metrics_outputs(registry, outdir, cfg: SimulationConfig) -> None:
    """Export ``metrics.prom`` / ``metrics.json`` / ``metrics.jsonl``."""
    from pathlib import Path

    from .obs.export import (
        append_snapshot_jsonl,
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


def _load_metrics_snapshot(path: str) -> dict:
    """Load a metrics dump: a plain snapshot JSON or the last snapshot
    line of a JSONL stream."""
    import json
    from pathlib import Path

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
        "run": _cmd_metrics_run,
        "summarize": _cmd_metrics_summarize,
        "diff": _cmd_metrics_diff,
    }
    return handlers[args.metrics_command](args)


def _cmd_metrics_run(args: argparse.Namespace) -> int:
    from .obs.export import HeartbeatReporter, ledger_table
    from .obs.metrics import MetricsRegistry

    cfg = _config_from_args(args)
    registry = MetricsRegistry()
    heartbeat = None
    if args.heartbeat_ms > 0:
        heartbeat = HeartbeatReporter(every_ms=args.heartbeat_ms,
                                      registry=registry)
    result = run_simulation(cfg, registry=registry, heartbeat=heartbeat)
    _write_metrics_outputs(registry, args.outdir, cfg)
    problems = registry.ledger.crosscheck()
    print("ledger crosscheck (components vs priced bytes): "
          + ("OK" if not problems else "MISMATCH"))
    for p in problems:
        print(f"  {p}")
    print()
    print("metadata bytes by component (measured window):")
    print(ledger_table(registry.ledger))
    return 1 if problems else 0


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
    import json
    from pathlib import Path

    from .experiments.runner import build_placement
    from .workload.traces import load_history

    out = Path(args.outdir)
    config = json.loads((out / "config.json").read_text())
    history = load_history(out / "history.jsonl")
    placement = build_placement(SimulationConfig(
        protocol=config["protocol"], n_sites=config["n_sites"],
        n_vars=config["n_vars"],
        replication_factor=config["replication_factor"],
        placement=config.get("placement", "round-robin"),
        seed=config.get("seed", 0),
    ))
    report = check_causal_consistency(history, placement)
    status = "OK" if report.ok else "VIOLATED"
    print(f"{config['protocol']} trace: causal consistency {status} "
          f"({report.n_writes} writes, {report.n_reads} reads, "
          f"{report.n_applies} applies)")
    for v in report.violations[:20]:
        print(f"  {v}")
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.effects or args.layers or args.write_baseline:
        from .check.cli import main as static_main

        argv = ["--no-lint", "--no-mypy",
                "--format", args.static_format]
        if args.effects:
            argv.append("--effects")
        if args.layers:
            argv.append("--layers")
        if args.write_baseline:
            argv.append("--write-baseline")
        if args.static_report is not None:
            argv.extend(["--report", args.static_report])
        return static_main(argv)
    cfg = _config_from_args(args, record_history=True)
    registry = _registry_from_args(args)
    result = run_simulation(cfg, registry=registry)
    if registry is not None:
        _write_metrics_outputs(registry, args.metrics_dir, cfg)
    report = check_causal_consistency(result.history, result.placement)
    status = "OK" if report.ok else "VIOLATED"
    print(f"{args.protocol}: causal consistency {status} "
          f"({report.n_writes} writes, {report.n_reads} reads, "
          f"{report.n_applies} applies)")
    if cfg.fault_plan is not None:
        col = result.collector
        print(f"chaos: {col.injected_drops} drops, {col.injected_dups} dups, "
              f"{col.retransmissions} retransmissions, "
              f"{col.duplicate_drops} duplicates suppressed, "
              f"{col.acks_sent} acks")
    _print_crash_stats(result)
    _print_membership_stats(result)
    for v in report.violations[:20]:
        print(f"  {v}")
    return 0 if report.ok else 1


def _print_crash_stats(result) -> int:
    """One summary line per crash-recovery aspect (silent when inactive)."""
    if result.crash_manager is None:
        return 0
    col = result.collector
    detector = result.crash_manager.detector
    print(f"crash-recovery: {col.crashes} crashes, "
          f"{col.checkpoints_taken} checkpoints, "
          f"mean downtime {col.downtime.mean if col.downtime.count else 0.0:.0f} ms, "
          f"mean detection {col.detection_latency.mean if col.detection_latency.count else 0.0:.0f} ms, "
          f"mean catch-up {col.catchup_latency.mean if col.catchup_latency.count else 0.0:.0f} ms")
    print(f"  wal: mean {col.wal_replays.mean if col.wal_replays.count else 0.0:.0f} records replayed/restore; "
          f"detector: {detector.heartbeats_sent if detector else 0} heartbeats, "
          f"{col.false_suspicions} false suspicions; "
          f"{col.sync_messages} sync msgs; "
          f"{col.lost_ops} ops lost (crash-stop)")
    return 0


def _print_membership_stats(result) -> int:
    """One summary line for elastic membership (silent when static)."""
    vm = getattr(result, "view_manager", None)
    if vm is None:
        return 0
    view = vm.view
    st = vm.stats
    print(f"membership: epoch {view.epoch}, members {list(view.members)}; "
          f"{st.joins} joins, {st.leaves} leaves, {st.evictions} evictions, "
          f"{st.handoffs} replica handoffs, "
          f"{st.lost_variables} variables lost to eviction")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("protocols:")
    for name in protocol_names():
        print(f"  {name}")
    print("\nexperiments:")
    for key in sorted(EXHIBITS):
        print(f"  {key:8s} {EXHIBITS[key].title}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from pathlib import Path

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
    import subprocess
    import time
    from pathlib import Path

    import repro
    from .service.bootstrap import (
        default_topology, load_topology, save_topology,
    )
    from .service.loadgen import http_request

    run_dir = Path(args.dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.topology:
        topology = load_topology(args.topology)
    else:
        if args.protocol not in protocol_names():
            raise SystemExit(f"unknown protocol {args.protocol!r}")
        topology = default_topology(
            args.nodes,
            protocol=args.protocol,
            n_vars=args.variables,
            replication_factor=args.replication_factor,
            placement=args.placement,
            seed=args.seed,
            base_port=args.base_port,
            history_dir=str(run_dir),
        )
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
            for spec in topology.nodes:
                try:
                    status, _ = await http_request(
                        spec.host, spec.http_port, "GET", "/status"
                    )
                    if status != 200:
                        return False
                except (ConnectionError, OSError):
                    return False
            return True

        # simcheck: ignore[SIM001] -- supervising real OS processes; never feeds simulated results
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:  # simcheck: ignore[SIM001] -- see above
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

    topology = load_topology(args.topology)
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
          f"violations={len(report.violations)}")
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
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "reproduce": _cmd_reproduce,
        "advise": _cmd_advise,
        "trace": _cmd_trace,
        "verify-trace": _cmd_verify_trace,
        "analytic": _cmd_analytic,
        "crossover": _cmd_crossover,
        "check": _cmd_check,
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
