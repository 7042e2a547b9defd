"""Simulation runner: configuration -> wired system -> measured run.

This is the reproduction's equivalent of the paper's JDK benchmark
driver: it builds the workload, the placement, the network, one protocol
instance per site, runs the discrete-event loop to quiescence, enforces
the warm-up window (first 15% of operation events unmeasured), and
returns the measured metrics.

``run_simulation`` is strict: at the end of a run every site
must have finished its schedule and every protocol buffer must have
drained — a protocol bug that deadlocks an activation predicate fails
the run instead of silently under-reporting messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.base import (
    CausalProtocol,
    ProtocolContext,
    create_protocol,
    replication_factor_for,
)
from ..core.recovery import DetectorPolicy
from ..memory.replication import Placement, RoundRobinPlacement
from ..memory.store import SiteStore
from ..metrics.collector import MetricsCollector
from ..obs.export import HeartbeatReporter
from ..obs.ledger import MetadataLedger
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..sim.crash import CrashRecoveryManager, install_crash_recovery
from ..sim.engine import Simulator
from ..sim.faults import FaultInjector, FaultPlan, JoinEvent
from ..sim.membership import ViewManager
from ..sim.network import LatencyModel, Network, PerPairLatency, UniformLatency
from ..sim.overload import OverloadDriver
from ..sim.process import Site
from ..sim.reliable import ReliableTransport, RetransmitPolicy
from ..verify.history import HistoryRecorder
from ..workload.generator import generate_workload
from ..workload.schedule import Workload

__all__ = [
    "SimulationConfig", "RunResult", "SimulatedSystem",
    "build_placement", "build_system", "run_simulation",
]

#: paper warm-up fraction (Section V)
PAPER_WARMUP_FRACTION = 0.15


@dataclass(frozen=True)
class SimulationConfig:
    """Everything defining one simulation run.

    ``replication_factor=None`` resolves to the protocol's natural
    default: p = n for full-replication protocols, the paper's
    p = round(0.3 n) for partial-replication ones.
    """

    protocol: str
    n_sites: int
    n_vars: int = 100
    replication_factor: Optional[int] = None
    write_rate: float = 0.5
    ops_per_process: int = 600
    gap_range_ms: tuple[float, float] = (5.0, 2005.0)
    #: "uniform" (the paper's setting) or "zipf" (skewed popularity)
    var_distribution: str = "uniform"
    zipf_s: float = 1.1
    warmup_fraction: float = PAPER_WARMUP_FRACTION
    seed: int = 0
    latency: LatencyModel = field(default_factory=UniformLatency)
    #: bytes/ms each sender's uplink can push (None = infinite, the
    #: paper's model where metadata size never affects timing)
    bandwidth_bytes_per_ms: Optional[float] = None
    record_history: bool = False
    max_events: Optional[int] = None
    #: chaos layer: ``None`` keeps the seed's reliable FIFO path exactly
    #: (zero overhead); a plan routes every message through the
    #: ack/retransmit transport over the lossy substrate
    fault_plan: Optional[FaultPlan] = None
    #: seed of the injector's dedicated RNG stream — fault schedules
    #: replay bit-identically, independent of latency sampling
    fault_seed: int = 0
    retransmit: Optional[RetransmitPolicy] = None
    #: durable-state layer: ``None`` disables checkpointing entirely
    #: *unless* the fault plan schedules crashes or a detector policy or
    #: auto-eviction is set (which force it on at the default interval);
    #: crash-free runs with it disabled stay byte-identical to the seed
    checkpoint_interval_ms: Optional[float] = None
    #: heartbeat failure-detector tuning (None = defaults when crashes
    #: are planned; no detector at all otherwise)
    detector: Optional[DetectorPolicy] = None
    #: elastic membership: escalate a persistently-suspected crash-stopped
    #: site into an eviction after this long (None = never auto-evict)
    auto_evict_after_ms: Optional[float] = None
    #: route all traffic through the frozen-message sanitizer
    #: (:mod:`repro.check.sanitizer`): every message is fingerprinted at
    #: send and verified at each delivery — any post-send mutation of
    #: aliased metadata raises.  Off by default (costs a deep copy +
    #: hash per message); the simulation itself is unchanged either way.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.n_sites <= 0:
            raise ValueError("n_sites must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup fraction must be in [0, 1)")
        # fail fast on typos and on a partial p under full replication
        replication_factor_for(self.protocol, self.n_sites,
                               self.replication_factor)

    @property
    def churn(self) -> bool:
        """Elastic membership in play: planned view changes or auto-eviction."""
        return (bool(self.fault_plan is not None and self.fault_plan.membership)
                or self.auto_evict_after_ms is not None)


@dataclass
class RunResult:
    """Output of one simulation run."""

    config: SimulationConfig
    collector: MetricsCollector
    workload: Workload
    history: Optional[HistoryRecorder]
    placement: Placement
    protocols: list[CausalProtocol]
    sim_time_ms: float
    total_sim_events: int
    #: crash-recovery orchestrator (None when no crash machinery ran)
    crash_manager: Optional[CrashRecoveryManager] = None
    #: elastic-membership orchestrator (None for static-membership runs)
    view_manager: Optional[ViewManager] = None
    #: flash-crowd driver (None when the plan has no overload events)
    overload_driver: Optional[OverloadDriver] = None

    @property
    def final_log_sizes(self) -> list[int]:
        """Causality-metadata size per site at quiescence."""
        return [p.log_size() for p in self.protocols]

    def summary(self) -> dict:
        """Flat dict of the headline numbers (reports, CSV rows)."""
        out = {
            "protocol": self.config.protocol,
            "n": self.config.n_sites,
            "p": self.placement.replication_factor,
            "q": self.config.n_vars,
            "write_rate": self.config.write_rate,
            "seed": self.config.seed,
            "sim_time_ms": self.sim_time_ms,
        }
        detector = self.crash_manager.detector if self.crash_manager else None
        out.update(self.collector.as_dict(
            heartbeats_sent=detector.heartbeats_sent if detector else 0))
        return out


def build_placement(config: SimulationConfig) -> Placement:
    """The round-robin replica placement a config describes."""
    return RoundRobinPlacement(
        config.n_sites, config.n_vars,
        replication_factor_for(config.protocol, config.n_sites,
                               config.replication_factor))


@dataclass
class SimulatedSystem:
    """A wired simulated cluster: what :func:`build_system` returns."""

    config: SimulationConfig
    placement: Placement
    sim: Simulator
    collector: MetricsCollector
    #: the sanitizer's proxy when ``config.sanitize`` is set
    network: Network
    #: the chaos transport (None on the plain FIFO path)
    transport: Optional[ReliableTransport]
    faults: Optional[FaultInjector]
    #: the overload driver's stream (None when the plan has no overloads)
    overload_rng: Optional[np.random.Generator]
    history: Optional[HistoryRecorder]
    tracer: Optional[Tracer]
    protocols: list[CausalProtocol] = field(default_factory=list)
    #: the run's application sites (filled by run_simulation; empty when
    #: sites are driven by hand), shared with the crash manager
    sites: list[Site] = field(default_factory=list)
    crash_manager: Optional[CrashRecoveryManager] = None

    def new_protocol(self, site: int) -> CausalProtocol:
        """Site ``site``'s protocol, for the initial sites and for
        joiners alike (a joiner's is built after placement and network
        have grown to include it, so its derived state is correct)."""
        ctx = ProtocolContext(
            site=site,
            n_sites=self.network.n_sites,
            placement=self.placement,
            store=SiteStore(site, self.placement.vars_at(site)),
            network=self.network,
            clock=self.sim,
            collector=self.collector,
            history=self.history,
            tracer=self.tracer,
        )
        return create_protocol(self.config.protocol, ctx)


def build_system(
    config: SimulationConfig,
    *,
    tracer: Optional[Tracer] = None,
    crash_recovery: bool = False,
) -> SimulatedSystem:
    """Wire the simulator, network, protocols and crash stack ``config``
    describes; :func:`run_simulation` and the interactive
    :class:`~repro.cluster.CausalCluster` both start here.

    ``crash_recovery`` installs the crash stack with its failure detector
    even when no crash is planned, so sites can be crashed by hand.
    """
    placement = build_placement(config)
    sim = Simulator(max_events=config.max_events)
    net_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    collector = MetricsCollector()
    faults = None
    overload_rng: Optional[np.random.Generator] = None
    plan = config.fault_plan
    if plan is not None:
        # two children: [0] is byte-identical to the pre-overload
        # .spawn(1)[0] stream (spawn keys are positional), so attaching
        # the overload driver's dedicated stream never perturbs the
        # injector's fault schedule
        fault_children = np.random.SeedSequence(config.fault_seed).spawn(2)
        faults = FaultInjector(plan, rng=np.random.default_rng(fault_children[0]))
        if plan.overloads:
            overload_rng = np.random.default_rng(fault_children[1])
    network = Network(sim, config.n_sites, config.latency, rng=net_rng,
                      bandwidth_bytes_per_ms=config.bandwidth_bytes_per_ms,
                      faults=faults, collector=collector,
                      retransmit=config.retransmit, tracer=tracer)
    transport = network.transport
    if config.sanitize:
        from ..check.sanitizer import SanitizedNetwork

        network = SanitizedNetwork(network)  # type: ignore[assignment]
    if tracer is not None:
        tracer.meta.setdefault("protocol", config.protocol)
        tracer.meta.setdefault("n_sites", config.n_sites)
        tracer.meta.setdefault("seed", config.seed)
    system = SimulatedSystem(
        config=config, placement=placement, sim=sim, collector=collector,
        network=network, transport=transport, faults=faults,
        overload_rng=overload_rng,
        history=HistoryRecorder() if config.record_history else None,
        tracer=tracer,
    )
    for i in range(config.n_sites):
        proto = system.new_protocol(i)
        network.register(i, proto.on_message)
        system.protocols.append(proto)

    # Crash-recovery machinery attaches before any operation: checkpoints
    # and the WAL only cover operations issued after it hooks in.
    # Membership churn alone needs none of it: a joiner bootstraps from
    # a donor snapshot, and a leaver drains at a fence.
    crashes = plan.crashes if plan is not None else ()
    # a failure detector watches when crashes are planned, a policy is
    # given, eviction escalates its suspicions, or sites are crashed by
    # hand over the chaos transport (it pauses retransmission into the
    # dead site)
    watch = (bool(crashes) or config.detector is not None
             or config.auto_evict_after_ms is not None
             or (crash_recovery and transport is not None))
    if watch or crash_recovery or config.checkpoint_interval_ms is not None:
        system.crash_manager = install_crash_recovery(
            sim, network, system.protocols,
            crashes=crashes,
            checkpoint_interval_ms=config.checkpoint_interval_ms,
            detector_policy=(config.detector or DetectorPolicy()) if watch else None,
            collector=collector,
            tracer=tracer,
            sites=system.sites,
        )
    return system


def _sample_final_metrics(
    registry: MetricsRegistry,
    sim: Simulator,
    protocols: list[CausalProtocol],
    end_time: float,
    collector: MetricsCollector,
    transport: Optional[ReliableTransport] = None,
    crash_manager: Optional[CrashRecoveryManager] = None,
    view_manager: Optional[ViewManager] = None,
    overload_driver: Optional[OverloadDriver] = None,
) -> None:
    """Export every number once, at quiescence, from the store that keeps it.

    Kernel counters, per-site terminal log sizes, buffered arrivals and
    the peak activation-buffer depth, opt-track purge tallies, the
    collector's fault, crash, channel-event and overload counters and
    its distributions, the detector's and the view manager's own
    counts: each number has one writer, and the registry only reads it
    here.  A distribution is exported as a summary bound to the
    collector's ``RunningStat``; its help text names the window.
    """
    registry.inc("kernel_events_total", sim.processed_events,
                 help_text="events processed by the simulation kernel")
    registry.inc("kernel_compactions_total", sim.compactions,
                 help_text="tombstone compaction sweeps of the event heap")
    registry.set_gauge("run_sim_time_ms", end_time,
                       help_text="simulated wall-clock at quiescence")
    for proto in protocols:
        registry.set_gauge(
            "proto_final_log_entries", proto.log_size(),
            help_text="causal-metadata log entries held at quiescence",
            protocol=proto.name, site=proto.site)
        registry.set_gauge(
            "proto_pending_sm_peak", proto.pending_sm_peak,
            help_text="peak activation-buffer depth over the run",
            protocol=proto.name, site=proto.site)
        registry.inc(
            "proto_buffered_arrivals_total", proto.buffered_arrivals,
            help_text="arrivals that took the pending buffer (lifetime)",
            protocol=proto.name, site=proto.site)
        log = getattr(proto, "log", None)
        purged = getattr(log, "purged_records", None)
        if purged is not None:
            registry.inc(
                "proto_purged_log_records_total", purged,
                help_text="KS log records dropped by destination pruning",
                protocol=proto.name, site=proto.site)
    for name, value, help_text in (
        ("net_injected_drops_total",
         collector.injected_drops - collector.injected_partition_drops,
         "packets dropped by the fault injector (non-partition)"),
        ("net_partition_drops_total", collector.injected_partition_drops,
         "packets dropped because a partition severed the channel"),
        ("net_duplicates_total", collector.injected_dups,
         "duplicate packets injected by the fault plan"),
        ("net_dead_site_drops_total", collector.dead_site_drops,
         "packets dropped at the wire because the destination was down"),
    ):
        registry.inc(name, value, help_text=help_text)
    for name, value, help_text in (
        ("crash_crashes_total", collector.crashes, "site crashes injected"),
        ("crash_restores_total", collector.downtime.count,
         "sites restored from disk"),
        ("crash_catchups_total", collector.catchup_latency.count,
         "anti-entropy catch-ups completed"),
        ("wal_checkpoints_total", collector.checkpoints_taken,
         "checkpoints installed across all sites"),
        ("wal_truncated_records_total", collector.wal_truncated_records,
         "WAL records truncated by those checkpoints"),
    ):
        if value:
            registry.inc(name, value, help_text=help_text)
    protocol = protocols[0].name
    registry.summary(
        "proto_activation_wait_ms", collector.activation_delays,
        help_text="time a buffered SM waited before its activation "
                  "predicate held (measured window)",
        protocol=protocol)
    if collector.log_sizes.count:
        registry.summary(
            "proto_log_entries", collector.log_sizes,
            help_text="local log entries at each write (measured window)",
            protocol=protocol)
    for name, stat, help_text in (
        ("crash_downtime_ms", collector.downtime,
         "crash-to-restore downtime (lifetime)"),
        ("wal_replayed_records", collector.wal_replays,
         "WAL records replayed per restore (lifetime)"),
        ("crash_catchup_ms", collector.catchup_latency,
         "restore-to-caught-up duration (lifetime)"),
    ):
        if stat.count:
            registry.summary(name, stat, help_text=help_text)
    if transport is not None:
        transport.sample_channel_metrics(registry)
    detector = crash_manager.detector if crash_manager is not None else None
    if detector is not None:
        for name, value, help_text in (
            ("detector_heartbeats_total", detector.heartbeats_sent,
             "heartbeat packets sent"),
            ("detector_suspicions_total", detector.suspicions,
             "pairs newly suspected (true + false)"),
            ("detector_false_suspicions_total", collector.false_suspicions,
             "suspicions of a site that was actually up"),
            ("detector_recoveries_total", detector.recoveries,
             "suspected pairs cleared by proof of life"),
        ):
            registry.inc(name, value, help_text=help_text)
    if view_manager is not None and view_manager.view.epoch:
        view, stats = view_manager.view, view_manager.stats
        registry.inc("membership_epochs_total", view.epoch,
                     help_text="view epochs installed")
        for kind, value in (("join", stats.joins), ("leave", stats.leaves),
                            ("evict", stats.evictions)):
            if value:
                registry.inc("membership_changes_total", value,
                             help_text="applied view changes by kind",
                             kind=kind)
        registry.set_gauge("membership_members", len(view.members),
                           help_text="members in the current view")
        registry.set_gauge("membership_epoch", view.epoch,
                           help_text="current view epoch number")
    if overload_driver is not None:
        registry.inc("overload_injected_total", collector.overload_injected,
                     help_text="flash-crowd writes that reached a protocol")
        registry.inc("overload_sheds_total", collector.overload_sheds,
                     help_text="flash-crowd writes refused by admission")
        registry.inc("overload_skipped_total", overload_driver.skipped,
                     help_text="flash-crowd ticks aimed at down/held sites")


def run_simulation(
    config: SimulationConfig,
    workload: Optional[Workload] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    heartbeat: Optional[HeartbeatReporter] = None,
) -> RunResult:
    """Execute one full simulation run and return its measurements.

    A caller-provided ``workload`` overrides generation — that is how
    the *same* schedule is replayed through different protocols.

    A caller-provided ``tracer`` records causally-linked span events for
    every operation and message hop; ``None`` (the default) keeps the
    instrumented paths byte-identical to the untraced seed behavior,
    mirroring the ``fault_plan=None`` contract.

    A caller-provided ``registry`` is filled at quiescence: labeled
    counters, gauges and summaries across kernel/network/protocols/
    crash/membership, read from the stores that keep them, plus the
    per-component metadata-byte ledger over the run's collector.  A
    ``heartbeat`` reporter (usually paired with a registry) emits
    periodic progress lines while the run executes; its "at last beat"
    gauges are the only registry writes before quiescence.
    """
    # Elastic membership: the id space (capacity) covers every site that
    # will ever exist this run, so the workload is generated for joiners
    # too — their schedules simply start once they are admitted.
    plan = config.fault_plan
    membership_events = plan.membership if plan is not None else ()
    n_joins = sum(1 for ev in membership_events if isinstance(ev, JoinEvent))
    capacity = config.n_sites + n_joins
    if config.churn and isinstance(config.latency, PerPairLatency):
        raise ValueError(
            "PerPairLatency has a fixed delay matrix and cannot model "
            "membership churn; use a sampled latency model"
        )
    if workload is None:
        workload = generate_workload(
            capacity,
            n_vars=config.n_vars,
            write_rate=config.write_rate,
            ops_per_process=config.ops_per_process,
            gap_range_ms=config.gap_range_ms,
            seed=config.seed,
            var_distribution=config.var_distribution,
            zipf_s=config.zipf_s,
        )
    if workload.n_sites != capacity:
        raise ValueError(
            f"workload has {workload.n_sites} sites, config wants {capacity} "
            f"({config.n_sites} initial + {n_joins} joiner(s))"
        )
    if workload.n_vars > config.n_vars:
        raise ValueError("workload touches more variables than the config declares")
    if plan is not None and (plan.crashes or membership_events):
        # a crash or membership event scheduled after the workload can
        # ever end would stall quiescence (or silently test nothing);
        # reject early
        horizon = max(
            (s.times[-1] for s in workload.schedules if len(s)),
            default=0.0,
        )
        plan.validate(horizon_ms=horizon)

    system = build_system(config, tracer=tracer)
    sim, collector, protocols = system.sim, system.collector, system.protocols
    if registry is not None:
        # clock growth past the initial site count is epoch padding
        registry.ledger = MetadataLedger(collector, base_n=config.n_sites)
    crash_manager = system.crash_manager
    if tracer is not None:
        tracer.meta.setdefault("ops_per_process", config.ops_per_process)
    if heartbeat is not None:
        if heartbeat.registry is None:
            heartbeat.registry = registry
        sim.observer = heartbeat.on_sim_event
        heartbeat.bind(network=system.network, protocols=protocols)

    # Warm-up gate: open the measurement window once the first
    # ceil(fraction * total) operations have *started* (paper Sec. V).
    total_ops = workload.total_operations
    warmup_ops = math.ceil(config.warmup_fraction * total_ops)
    started = 0

    def on_operation(site_id: int) -> None:
        nonlocal started
        started += 1
        if started == warmup_ops + 1 or (warmup_ops == 0 and started == 1):
            collector.start_measuring()

    if warmup_ops == 0:
        collector.start_measuring()

    def site_factory(site_id: int, proto: CausalProtocol) -> Site:
        return Site(proto, workload.for_site(site_id), sim,
                    on_operation=on_operation, tracer=tracer)

    # the run's one site list (and one protocol list), shared by
    # reference with the crash and view managers; a joiner is appended once
    sites = system.sites
    sites.extend(site_factory(i, proto) for i, proto in enumerate(protocols))

    view_manager: Optional[ViewManager] = None
    if config.churn:
        view_manager = ViewManager(
            sim, system.network, system.placement, protocols,
            protocol_factory=system.new_protocol,
            site_factory=site_factory,
            sites=sites,
            crash_manager=crash_manager,
        )
        view_manager.schedule_plan(membership_events)
        if config.auto_evict_after_ms is not None:
            view_manager.enable_eviction(config.auto_evict_after_ms)

    overload_driver: Optional[OverloadDriver] = None
    if system.overload_rng is not None:
        assert plan is not None
        overload_driver = OverloadDriver(
            sim, plan, protocols, sites, config.n_vars, system.overload_rng,
            collector,
        )

    for site in sites:
        site.start()
    end_time = sim.run()

    if registry is not None:
        _sample_final_metrics(registry, sim, protocols, end_time, collector,
                              transport=system.transport,
                              crash_manager=crash_manager,
                              view_manager=view_manager,
                              overload_driver=overload_driver)

    dead_forever: set[int] = set()
    if crash_manager is not None:
        dead_forever = crash_manager.down_forever()
        lost = crash_manager.lost_operations()
        if lost:
            collector.record_lost_ops(lost)
    if not dead_forever and not system.network.departed:
        # crash-stop runs are exempt: a dead-forever site strands its own
        # schedule, and live sites can be legitimately stuck on state
        # frozen inside the dead site's outbound queue (those operations
        # are accounted as lost above); a departed site exempts likewise —
        # live sites may hold buffered updates depending on state that
        # left with the victim; every other run — including full
        # crash-recovery plans — must finish and drain completely
        stuck_sites = [s.site_id for s in sites if not s.finished]
        if stuck_sites:
            raise RuntimeError(f"sites never finished their schedules: {stuck_sites}")
        undrained = {p.site: p.pending_count for p in protocols if p.pending_count}
        if undrained:
            raise RuntimeError(
                f"protocol buffers not drained at quiescence: {undrained}"
            )

    return RunResult(
        config=config,
        collector=collector,
        workload=workload,
        history=system.history,
        placement=system.placement,
        protocols=protocols,
        sim_time_ms=end_time,
        total_sim_events=sim.processed_events,
        crash_manager=crash_manager,
        view_manager=view_manager,
        overload_driver=overload_driver,
    )
