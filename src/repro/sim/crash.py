"""Site crash–recovery: orchestration of checkpoints, detection, rejoin.

The :class:`CrashRecoveryManager` crashes and restores sites; which
sites are down (or departed) is recorded once, by the
:class:`~repro.sim.network.Network` that enforces it at the wire, and
the manager reads it there.  It executes seeded crash plans
(:class:`~repro.sim.faults.CrashEvent`), coordinates the durable-state
layer (:mod:`repro.sim.checkpoint`), the heartbeat failure detector
(:mod:`repro.sim.failure_detector`) and the reliable transport, and
drives the rejoin pipeline:

1. **restore** — reinstall the last durable checkpoint into the
   protocol object and replay the write-ahead log through the normal
   protocol code paths (deterministic re-execution, no value-level
   state transfer);
2. **catch-up** — anti-entropy rounds against every live replica: the
   rejoining site asks each peer for its pending count and a freshness
   digest of the variables they co-replicate, while the transport
   flushes everything that stayed queued (unacked) for the site during
   its downtime.  Catch-up completes when no live sender holds unacked
   traffic for the site, every peer digest entry is *known* (per the
   protocol's ``knows_write``), and the rejoined site's own reorder /
   activation buffers have drained;
3. **resume** — the application schedule continues from the interrupted
   operation (:meth:`~repro.sim.process.Site.recover`).

Catch-up never installs values directly: the causal safety argument of
every protocol rests on updates flowing through the activation
predicates, so the manager only *waits* (with bounded rounds) until the
ordinary machinery has caught the site up.

The manager also owns the global ``quiescent()`` predicate that lets the
self-perpetuating infrastructure ticks (heartbeats, checkpoints,
catch-up rounds) stop once the run is over — without it the event loop
would never drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..memory.store import WriteId
from .checkpoint import DEFAULT_CHECKPOINT_INTERVAL_MS, DurabilityLayer
from .failure_detector import DetectorPolicy, FailureDetector
from .faults import CrashEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import CausalProtocol
    from ..metrics.collector import MetricsCollector
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer
    from .engine import Simulator
    from .network import Network
    from .process import Site

__all__ = [
    "SyncRequest",
    "SyncResponse",
    "CrashRecoveryManager",
    "install_crash_recovery",
]

# anti-entropy parameters of the rejoin catch-up phase
#: spacing of the first catch-up round after restore
CATCHUP_ROUND_INTERVAL_MS = 80.0
#: multiplicative backoff between rounds
CATCHUP_BACKOFF = 1.5
#: cap on the backed-off round interval
CATCHUP_MAX_INTERVAL_MS = 640.0
#: give up (and resume anyway) after this many rounds; the causal
#: checker downstream still gates correctness
CATCHUP_MAX_ROUNDS = 40
#: modelled wire sizes of the sync messages
SYNC_REQUEST_BYTES = 24.0
SYNC_RESPONSE_BASE_BYTES = 48.0
SYNC_RESPONSE_ENTRY_BYTES = 12.0


@dataclass(frozen=True)
class SyncRequest:
    """Catch-up probe from a rejoining site to one live peer."""

    origin: int  # the rejoining site
    round: int


@dataclass(frozen=True)
class SyncResponse:
    """One live peer's view of how far behind the rejoining site is.

    ``digest`` holds, for every variable co-replicated by responder and
    target, the write id currently visible at the responder (or None if
    never written).  The digest is advisory freshness information — the
    actual data still arrives through the normal (retransmitting)
    channels; the target only uses it to decide whether it has caught
    up, via the protocol's conservative ``knows_write``.
    """

    origin: int  # the responder
    target: int  # the rejoining site
    round: int
    pending: int  # responder's own pending (buffered) messages
    digest: tuple[tuple[int, Optional[tuple[int, int]]], ...]


class CrashRecoveryManager:
    """Simulation-side crash/recovery orchestration for one network."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        protocols: "list[CausalProtocol]",
        durability: DurabilityLayer,
        *,
        detector: Optional[FailureDetector] = None,
        crashes: Sequence[CrashEvent] = (),
        collector: "MetricsCollector",
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self.sim = sim
        self.net = network
        self.transport = network.transport
        #: the run's protocol list, shared (a joiner appears here when
        #: the view manager appends it)
        self.protocols = protocols
        self.placement = protocols[0].ctx.placement
        self.durability = durability
        self.detector = detector
        #: the run's application sites a crash halts and a recovery
        #: resumes, shared with the view manager (wired by the runner;
        #: None when sites are driven by hand)
        self.sites: "Optional[list[Site]]" = None
        self.crashes = tuple(crashes)
        self.collector = collector
        self.tracer = tracer
        #: elastic membership (wired by the view manager when churn is on)
        self.view_manager = None
        self.crash_time: dict[int, float] = {}
        #: sites restored but not yet done with anti-entropy
        self._catching_up: set[int] = set()
        self._catchup_started: dict[int, float] = {}
        self._catchup_rounds: dict[int, int] = {}
        self._responses: dict[int, dict[int, SyncResponse]] = {}
        #: sites with a *scheduled* future recovery (plan events)
        self._recovery_scheduled: set[int] = set()
        #: crash-plan events not yet fired (quiescence must wait for them)
        self._plan_pending = 0
        #: crashed sites already counted in the detection-latency metric
        self._detected: set[int] = set()
        self._started = False
        #: metrics registry for the restore and catch-up histograms
        #: (wired by the runner via attach_registry; None is the
        #: zero-overhead path); their counts are the collector's
        self.registry: "Optional[MetricsRegistry]" = None
        # wire the collaborators
        durability.quiescent = self.quiescent
        if detector is not None:
            detector.quiescent = self.quiescent
            detector.on_suspect = self._on_suspect
        if self.transport is not None:
            self.transport.register_packet_handler(self._handle_packet)

    def attach_registry(self, registry: "MetricsRegistry") -> None:
        """Wire the metrics registry through to the crash subsystems."""
        self.registry = registry
        self.durability.registry = registry

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach durability, start the detector, arm the crash plan."""
        if self._started:
            raise RuntimeError("crash-recovery manager already started")
        self._started = True
        self.durability.attach()
        if self.detector is not None:
            self.detector.start()
        for proto in self.protocols:
            self.adopt_site(proto)
        n = self.net.n_sites
        for ev in self.crashes:
            self._plan_pending += 1
            if ev.site >= n:
                raise ValueError(f"crash plan names site {ev.site}; n={n}")
            self.sim.schedule_at(ev.at_ms, lambda ev=ev: self._plan_crash(ev))

    def down_forever(self) -> set[int]:
        """Down sites with no scheduled recovery (crash-stop victims)."""
        # simcheck: ignore[SIM003] -- set-to-set filter; construction order is never observable
        return {s for s in self.net.down if s not in self._recovery_scheduled}

    # ------------------------------------------------------------------
    # crash plan execution
    # ------------------------------------------------------------------
    def _plan_crash(self, ev: CrashEvent) -> None:
        self._plan_pending -= 1
        self.crash(ev.site)
        if not ev.is_crash_stop:
            self._plan_pending += 1
            self._recovery_scheduled.add(ev.site)
            self.sim.schedule_at(ev.recover_ms,
                                 lambda: self._plan_recover(ev.site))

    def _plan_recover(self, site: int) -> None:
        self._plan_pending -= 1
        self._recovery_scheduled.discard(site)
        if site in self.net.departed:
            return  # evicted while down: the view moved on without it
        self.recover(site)

    # ------------------------------------------------------------------
    # crash / recover primitives (also used interactively by Cluster)
    # ------------------------------------------------------------------
    def crash(self, site: int) -> None:
        """Kill ``site`` now: volatile state is lost, durable state kept."""
        if self.view_manager is not None:
            self.view_manager.check_member(site)
        net = self.net
        if net.is_down(site):
            raise RuntimeError(f"site {site} is already down")
        if net.is_paused(site):
            # held messages were acked by the pause buffer but never
            # reached the WAL — crashing here would silently drop
            # acknowledged traffic and break ack-implies-durable
            raise RuntimeError(
                f"site {site} is paused; resume_site() before crashing it"
            )
        net.crash_site(site)
        now = self.sim.now
        self.crash_time[site] = now
        self._detected.discard(site)
        # a crash during catch-up abandons the catch-up (restart on the
        # next recover, from the newer checkpoint taken at restore time)
        self._catching_up.discard(site)
        self._responses.pop(site, None)
        self.collector.record_crash()
        if self.tracer is not None:
            self.tracer.site_crash(site, now)
        if self.sites is not None:
            self.sites[site].crash()
        if self.transport is not None:
            self.transport.on_site_crash(site)
        if self.detector is not None:
            self.detector.note_crash(site)

    def recover(self, site: int) -> None:
        """Restore ``site`` from disk, replay its WAL, start catch-up."""
        if self.view_manager is not None:
            self.view_manager.check_member(site)
        if not self.net.is_down(site):
            raise RuntimeError(f"site {site} is not down")
        now = self.sim.now
        proto = self.protocols[site]
        disk = self.durability.disk(site)
        checkpoint_age = self.crash_time[site] - disk.checkpoint_time
        proto.restore(disk.checkpoint)
        if self.view_manager is not None:
            # the view may have grown while the site was down (and the
            # checkpoint may predate even earlier epochs): resize the
            # restored metadata BEFORE replaying WAL records that can
            # reference post-growth site ids
            proto.on_view_change(self.view_manager.view)
        replayed = proto.replay(disk.wal)
        downtime = now - self.crash_time[site]
        self._detected.discard(site)
        self.net.revive_site(site)
        if self.transport is not None:
            self.transport.on_site_recover(site)
        if self.detector is not None:
            self.detector.note_recover(site)
        self.collector.record_restore(
            downtime_ms=downtime,
            wal_replayed=replayed,
            checkpoint_age_ms=checkpoint_age,
        )
        if self.registry is not None:
            self.registry.observe("crash_downtime_ms", downtime,
                                  help_text="crash-to-restore downtime")
            self.registry.observe("wal_replayed_records", replayed,
                                  help_text="WAL records replayed per restore")
        if self.tracer is not None:
            self.tracer.site_restore(site, now, downtime_ms=downtime,
                                     wal_replayed=replayed)
        # checkpoint the freshly rebuilt state so a repeat crash does not
        # replay the same WAL twice on top of the pre-crash checkpoint
        disk.install_checkpoint(proto.snapshot(), now)
        self.durability.wake()
        self._start_catchup(site)

    # ------------------------------------------------------------------
    # anti-entropy catch-up
    # ------------------------------------------------------------------
    def _start_catchup(self, site: int) -> None:
        self._catching_up.add(site)
        self._catchup_started[site] = self.sim.now
        self._catchup_rounds[site] = 0
        self._responses[site] = {}
        self._catchup_round(site, CATCHUP_ROUND_INTERVAL_MS)

    def _live_peers(self, site: int) -> list[int]:
        down = self.net.down
        return [p for p in self.net.members if p != site and p not in down]

    def _catchup_round(self, site: int, interval: float) -> None:
        if self.net.is_down(site) or site not in self._catching_up:
            return
        if self._caught_up(site):
            self._finish_catchup(site, forced=False)
            return
        rounds = self._catchup_rounds[site]
        if rounds >= CATCHUP_MAX_ROUNDS:
            self._finish_catchup(site, forced=True)
            return
        self._catchup_rounds[site] = rounds + 1
        req = SyncRequest(site, rounds)
        for peer in self._live_peers(site):
            self.collector.record_sync_message()
            self.net._transmit_raw(site, peer, req, SYNC_REQUEST_BYTES)
        nxt = min(interval * CATCHUP_BACKOFF, CATCHUP_MAX_INTERVAL_MS)
        self.sim.schedule(interval, lambda: self._catchup_round(site, nxt))

    def _caught_up(self, site: int) -> bool:
        # 1. nothing a live sender owes this site is still unacked (wire
        #    drops during downtime live in those queues — this is the
        #    real state-transfer barrier)
        if self.transport is not None and self.transport.unacked_to(
            site, from_live_only=True, down=self.net.down
        ):
            return False
        # 2. every live peer answered at least once, and every digest
        #    entry is known here (conservative per protocol)
        responses = self._responses.get(site, {})
        peers = self._live_peers(site)
        if any(p not in responses for p in peers):
            return False
        proto = self.protocols[site]
        for resp in responses.values():
            for _var, widt in resp.digest:
                if widt is None:
                    continue
                if proto.knows_write(WriteId(widt[0], widt[1])) is False:
                    return False
        # 3. the rejoined site's own buffers have drained — its causal
        #    gates accepted everything that arrived
        return proto.pending_count == 0

    def _finish_catchup(self, site: int, *, forced: bool) -> None:
        self._catching_up.discard(site)
        self._responses.pop(site, None)
        duration = self.sim.now - self._catchup_started.pop(site)
        rounds = self._catchup_rounds.pop(site, 0)
        self.collector.record_catchup(duration, rounds=rounds, forced=forced)
        if self.registry is not None:
            self.registry.observe("crash_catchup_ms", duration,
                                  help_text="restore-to-caught-up duration")
        if self.tracer is not None:
            self.tracer.site_catchup(site, self.sim.now, duration_ms=duration,
                                     rounds=rounds, forced=forced)
        if self.sites is not None:
            self.sites[site].recover()

    def _build_digest(
        self, responder: int, target: int
    ) -> tuple[tuple[int, Optional[tuple[int, int]]], ...]:
        proto = self.protocols[responder]
        store = proto.ctx.store
        digest: list[tuple[int, Optional[tuple[int, int]]]] = []
        for var in self.placement.vars_at(target):
            if not self.placement.is_replicated_at(var, responder):
                continue
            slot = store._slots[var]
            wid = slot.write_id
            digest.append((var, None if wid is None else (wid.site, wid.clock)))
        return tuple(digest)

    def _handle_packet(self, src: int, dst: int, packet: object,
                       dead: bool) -> bool:
        if isinstance(packet, SyncRequest):
            if dead or self.net.is_down(dst):
                return True
            if self.detector is not None:
                self.detector.observe(dst, src)
            resp = SyncResponse(
                origin=dst,
                target=packet.origin,
                round=packet.round,
                pending=self.protocols[dst].pending_count,
                digest=self._build_digest(dst, packet.origin),
            )
            size = (SYNC_RESPONSE_BASE_BYTES
                    + SYNC_RESPONSE_ENTRY_BYTES * len(resp.digest))
            self.collector.record_sync_message()
            self.net._transmit_raw(dst, packet.origin, resp, size)
            return True
        if isinstance(packet, SyncResponse):
            if dead or self.net.is_down(dst):
                return True
            if self.detector is not None:
                self.detector.observe(dst, src)
            site = packet.target
            if site != dst or site not in self._catching_up:
                return True  # stale response from an abandoned catch-up
            self._responses[site][packet.origin] = packet
            if self._caught_up(site):
                self._finish_catchup(site, forced=False)
            return True
        return False

    def _on_suspect(self, observer: int, subject: int,
                    actually_down: bool) -> None:
        """Detector callback: record detection latency on first notice."""
        if not actually_down or subject in self._detected:
            return
        self._detected.add(subject)
        self.collector.record_detection(self.sim.now - self.crash_time[subject])

    # ------------------------------------------------------------------
    # quiescence: may the infrastructure ticks stop?
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no future infrastructure work can matter.

        The heartbeat / checkpoint / catch-up ticks are self-perpetuating
        and would keep the event loop alive forever; they consult this
        before rescheduling.  The conditions are deliberately exact for
        crash-stop runs: with zero live↔live unacked traffic, a live
        site still blocked on a fetch can only be waiting on state frozen
        inside a dead site's outbound queue — i.e. genuinely
        unfinishable (the runner accounts those operations as lost).
        """
        if self._catching_up or self._plan_pending:
            return False
        if self.view_manager is not None and self.view_manager.busy():
            return False
        net = self.net
        members, down = net.members, net.down
        det = self.detector
        if det is not None:
            inj = net.faults
            now = self.sim.now
            forever = (
                inj.unhealed_partitions(now) if inj is not None else []
            )
            for o in members:
                if o in down:
                    continue
                for s in members:
                    if s == o or s in down:
                        continue
                    cut = (inj is not None
                           and inj.severed(s, o, now))
                    suspected = (o, s) in det.suspected
                    if cut and not suspected:
                        # the detector has not yet noticed this cut;
                        # until it suspects (and pauses the channel)
                        # the retransmit timers would burn forever
                        return False
                    if suspected and not cut:
                        # clears only when a heartbeat crosses — keep
                        # ticking so one does
                        return False
                    if cut and suspected and not any(
                        (s in g) != (o in g) for g in forever
                    ):
                        # a finite cut heals by itself; the ticks must
                        # outlive it so post-heal heartbeats can clear
                        # the (false) suspicion it caused
                        return False
        if self.transport is not None:
            # retransmissions into a dead site keep the loop alive until
            # its senders suspect it and pause; wait for that to settle
            for d in sorted(down):
                if self.transport.unacked_to(d, from_live_only=True,
                                             down=down):
                    for src in members:
                        if src in down:
                            continue
                        ch = self.transport._channels.get((src, d))
                        if (ch is not None and ch.sender.unacked
                                and (src, d) not in self.transport.paused_pairs):
                            return False
            if self.transport.unacked_between_live(down):
                return False
        if self.sites is not None:
            # departed sites count like dead-forever ones: a live site
            # blocked on a fetch into an evicted replica can never finish
            dead_forever = self.down_forever() | net.departed
            for site in self.sites:
                if site.site_id in down or site.finished:
                    continue
                # unfinishable: blocked on a fetch while the only state
                # that could unblock it is frozen in a dead-forever site
                if dead_forever and site.protocol._fetches:
                    continue
                return False
        return True

    def lost_operations(self) -> int:
        """Operations that can never complete (crash-stop accounting).

        Covers crash-stopped sites, live sites stranded on a fetch into
        a dead-forever or departed site, and the unexecuted remainder of
        an *evicted* site's schedule (a graceful leave voids its
        remaining schedule by choice, so it is not counted as lost).
        """
        if self.sites is None:
            return 0
        lost = 0
        departed = self.net.departed
        dead_forever = self.down_forever() | departed
        for site in self.sites:
            sid = site.site_id
            if sid in departed:
                if (self.view_manager is not None
                        and self.view_manager.membership_status(sid) == "evicted"):
                    lost += len(site.schedule) - site.completed_ops
                continue
            if site.finished:
                continue
            if sid in dead_forever or (
                dead_forever and site.protocol._fetches
            ):
                lost += len(site.schedule) - site.completed_ops
        return lost

    def wake(self) -> None:
        """Restart stopped infrastructure ticks (interactive drivers call
        this when new work arrives after a quiescent stop)."""
        self.durability.wake()
        if self.detector is not None:
            self.detector.wake()

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def adopt_site(self, proto: "CausalProtocol") -> None:
        """Give a site (an initial one, or a joiner already in the shared
        protocol list) the site-local liveness oracle: it avoids fetching
        from replicas it currently suspects, so failover stays symmetric
        with what the site could locally know."""
        det = self.detector
        if det is not None:
            proto._liveness = (
                lambda target, _self=proto.site: not det.suspects(_self, target)
            )

    def retire_site(self, site: int) -> None:
        """Close the book on a departed site (the network already counts
        it neither down nor a member): no recovery, catch-up or detection
        accounting applies."""
        self.crash_time.pop(site, None)
        self._detected.discard(site)
        self._recovery_scheduled.discard(site)
        if site in self._catching_up:
            self._catching_up.discard(site)
            self._responses.pop(site, None)
            self._catchup_started.pop(site, None)
            self._catchup_rounds.pop(site, None)


def install_crash_recovery(
    sim: "Simulator",
    network: "Network",
    protocols: "list[CausalProtocol]",
    *,
    crashes: Sequence[CrashEvent] = (),
    checkpoint_interval_ms: Optional[float] = None,
    detector_policy: Optional[DetectorPolicy] = None,
    with_detector: Optional[bool] = None,
    collector: "MetricsCollector",
    tracer: "Optional[Tracer]" = None,
) -> CrashRecoveryManager:
    """Build and wire the full crash-recovery stack.

    The detector (and hence heartbeat traffic) is only installed when
    crashes are possible — a checkpoint-only configuration stays
    passive.  Crashing at all requires the chaos transport, because
    held-for-dead traffic lives in its retransmit queues.
    """
    if with_detector is None:
        with_detector = bool(crashes) or detector_policy is not None
    if (crashes or with_detector) and network.transport is None:
        raise RuntimeError(
            "crash plans need the chaos transport (fault_plan=...): "
            "recovery relies on retransmit queues holding traffic for "
            "dead sites"
        )
    interval = (DEFAULT_CHECKPOINT_INTERVAL_MS
                if checkpoint_interval_ms is None else checkpoint_interval_ms)
    durability = DurabilityLayer(sim, network, protocols, interval_ms=interval,
                                 collector=collector)
    detector = None
    if with_detector:
        detector = FailureDetector(sim, network, detector_policy,
                                   collector=collector, tracer=tracer)
    manager = CrashRecoveryManager(
        sim, network, protocols, durability,
        detector=detector, crashes=crashes,
        collector=collector, tracer=tracer,
    )
    manager.start()
    return manager
