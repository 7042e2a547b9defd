"""Site crash–recovery: the simulator's driver of the crash stack.

The :class:`CrashRecoveryManager` crashes and restores sites; which
sites are down is recorded once, by the
:class:`~repro.sim.network.Network` that enforces it at the wire, and
the manager reads it there.  The substrate-free pieces — the
:class:`~repro.core.recovery.SiteDisk`, the
:class:`~repro.core.recovery.FailureDetector` suspicion table, the sync
messages, the digest and the caught-up rule — live in
:mod:`repro.core.recovery`; the manager owns everything that needs the
simulator: the checkpoint tick, the heartbeat tick, the catch-up rounds
and the packets they send.  It executes seeded crash plans
(:class:`~repro.sim.faults.CrashEvent`) and drives the rejoin pipeline:

1. **restore** — reinstall the last durable checkpoint into the
   protocol object and replay the write-ahead log through the normal
   protocol code paths (deterministic re-execution, no value-level
   state transfer);
2. **catch-up** — anti-entropy rounds against every live replica: the
   rejoining site asks each peer for its pending count and a freshness
   digest of the variables they co-replicate, while the transport
   flushes everything that stayed queued (unacked) for the site during
   its downtime (:func:`~repro.core.recovery.caught_up` says when it is
   done);
3. **resume** — the application schedule continues from the interrupted
   operation (:meth:`~repro.sim.process.Site.recover`).

Catch-up never installs values directly: the causal safety argument of
every protocol rests on updates flowing through the activation
predicates, so the manager only *waits* (with bounded rounds) until the
ordinary machinery has caught the site up.

Heartbeats travel over the *lossy* substrate — the fault injector
drops, spikes and partitions them like any packet, so suspicions can be
false.  A suspicion pauses the observer's reliable channel to the
subject (:meth:`~repro.core.netpolicy.ChannelHost.pause_pair`): sends
keep queueing durably but retransmission timers stop burning while the
subject cannot answer.  Any packet from the subject — the next
heartbeat, or a sync message during rejoin — clears the suspicion and
resumes the channel with an eager flush.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.recovery import (
    CATCHUP_BACKOFF,
    CATCHUP_MAX_INTERVAL_MS,
    CATCHUP_MAX_ROUNDS,
    CATCHUP_ROUND_INTERVAL_MS,
    DEFAULT_CHECKPOINT_INTERVAL_MS,
    HEARTBEAT_SIZE_BYTES,
    SYNC_REQUEST_BYTES,
    SYNC_RESPONSE_BASE_BYTES,
    SYNC_RESPONSE_ENTRY_BYTES,
    DetectorPolicy,
    FailureDetector,
    HeartbeatPacket,
    SiteDisk,
    SyncRequest,
    SyncResponse,
    build_digest,
    caught_up,
)
from .faults import CrashEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import CausalProtocol
    from ..metrics.collector import MetricsCollector
    from ..obs.tracer import Tracer
    from .engine import Simulator
    from .network import Network
    from .process import Site

__all__ = ["CrashRecoveryManager", "install_crash_recovery"]


class CrashRecoveryManager:
    """Simulation-side crash/recovery driver for one network.

    Owns the per-site disks and the checkpoint tick, the heartbeat tick
    over :attr:`detector` (None when no failure detector runs), the
    catch-up rounds, one packet handler and one :meth:`wake`.  Three
    reads only a simulator can make stay here: ground-truth ``is_down``
    to tell a false suspicion from a true one, :meth:`quiescent` (may
    the self-perpetuating ticks stop?) and :meth:`lost_operations`.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        protocols: "list[CausalProtocol]",
        *,
        crashes: Sequence[CrashEvent] = (),
        checkpoint_interval_ms: float = DEFAULT_CHECKPOINT_INTERVAL_MS,
        detector_policy: Optional[DetectorPolicy] = None,
        collector: "MetricsCollector",
        tracer: "Optional[Tracer]" = None,
        sites: "Optional[list[Site]]" = None,
    ) -> None:
        if checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint interval must be positive")
        if (crashes or detector_policy is not None) and network.transport is None:
            raise RuntimeError(
                "crash plans need the chaos transport (fault_plan=...): "
                "recovery relies on retransmit queues holding traffic for "
                "dead sites, and channel pausing lives there"
            )
        self.sim = sim
        self.net = network
        self.transport = network.transport
        #: the run's protocol list, shared
        self.protocols = protocols
        #: one disk per site, indexed by site id
        self.disks: list[SiteDisk] = []
        self.checkpoint_interval_ms = float(checkpoint_interval_ms)
        self.detector = (None if detector_policy is None
                         else FailureDetector(detector_policy))
        #: the run's application sites a crash halts and a recovery
        #: resumes, shared with the runner (empty when sites are driven
        #: by hand)
        self.sites: "list[Site]" = [] if sites is None else sites
        self.crashes = tuple(crashes)
        self.collector = collector
        self.tracer = tracer
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
        #: whether each periodic tick is scheduled (a quiescent stop
        #: clears it; :meth:`wake` re-arms)
        self._checkpointing = False
        self._beating = False
        if self.transport is not None:
            self.transport.register_packet_handler(self._handle_packet)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Take checkpoint zero, start both ticks, arm the crash plan.

        Checkpoint zero guarantees recovery is possible even if a site
        crashes before the first periodic tick fires.
        """
        if self._started:
            raise RuntimeError("crash-recovery manager already started")
        self._started = True
        now = self.sim.now
        for proto in self.protocols:
            disk = SiteDisk(proto.site)
            disk.install_checkpoint(proto.snapshot(), now)
            proto._wal = disk
            self.disks.append(disk)
        det = self.detector
        if det is not None:
            sites = range(self.net.n_sites)
            for site in sites:
                det.add_member(site, sites, now)
        self.wake()
        for proto in self.protocols:
            self._adopt(proto)
        n = self.net.n_sites
        for ev in self.crashes:
            self._plan_pending += 1
            if ev.site >= n:
                raise ValueError(f"crash plan names site {ev.site}; n={n}")
            self.sim.schedule_at(ev.at_ms, lambda ev=ev: self._plan_crash(ev))

    def wake(self) -> None:
        """Restart the ticks a quiescent stop ended (interactive drivers
        call this when new work arrives after a lull); a no-op for a
        tick that is still running."""
        if not self._started:
            return
        if not self._checkpointing:
            self._checkpointing = True
            self.sim.schedule(self.checkpoint_interval_ms, self._checkpoint_tick)
        det = self.detector
        if det is not None and not self._beating:
            det.rebaseline(self.sim.now)
            self._beating = True
            self.sim.schedule(det.policy.heartbeat_interval_ms,
                              self._heartbeat_tick)

    def down_forever(self) -> set[int]:
        """Down sites with no scheduled recovery (crash-stop victims)."""
        # simcheck: ignore[SIM003] -- set-to-set filter; construction order is never observable
        return {s for s in self.net.down if s not in self._recovery_scheduled}

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def _checkpoint_tick(self) -> None:
        """Checkpoint every live site at once — checkpoints cost nothing
        in simulated time, so one global tick keeps the event count low
        and the schedule deterministic."""
        quiescent = self.quiescent()
        now = self.sim.now
        down = self.net.down
        for proto, disk in zip(self.protocols, self.disks):
            if proto.site in down:
                continue  # a crashed site cannot write its own disk
            if quiescent and not disk.wal:
                continue  # nothing new since the last checkpoint
            self.collector.record_checkpoint(len(disk.wal))
            disk.install_checkpoint(proto.snapshot(), now)
        if quiescent:
            # one final checkpoint above truncated every WAL, so a later
            # crash (interactive drivers) replays only post-wake inputs
            self._checkpointing = False
            return
        self.sim.schedule(self.checkpoint_interval_ms, self._checkpoint_tick)

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> None:
        """Every live site beats to every other one, then every live
        observer's silent pairs are tested."""
        if self.quiescent():
            self._beating = False
            return
        det, transport = self.detector, self.transport
        assert det is not None and transport is not None
        net = self.net
        sites, down = range(net.n_sites), net.down
        for origin in sites:
            if origin in down:
                continue  # the dead don't beat
            for dst in sites:
                if dst == origin:
                    continue
                det.heartbeats_sent += 1
                net._transmit_raw(origin, dst, HeartbeatPacket(origin),
                                  HEARTBEAT_SIZE_BYTES)
        now = self.sim.now
        for observer, subject in det.expire(now, sites, down):
            transport.pause_pair(observer, subject)
            actually_down = net.is_down(subject)
            if not actually_down:
                self.collector.record_false_suspicion()
            if self.tracer is not None:
                self.tracer.detector_suspect(observer, subject, now,
                                             false_positive=not actually_down)
            if not actually_down:
                continue
            if subject not in self._detected:
                self._detected.add(subject)
                self.collector.record_detection(now - self.crash_time[subject])
        self.sim.schedule(det.policy.heartbeat_interval_ms, self._heartbeat_tick)

    def _hear(self, observer: int, subject: int) -> None:
        """Proof of life: a cleared suspicion resumes the channel."""
        det, transport = self.detector, self.transport
        if (det is not None and transport is not None
                and det.hear(observer, subject, self.sim.now)):
            transport.resume_pair(observer, subject, flush=True)
            if self.tracer is not None:
                self.tracer.detector_alive(observer, subject, self.sim.now)

    def _adopt(self, proto: "CausalProtocol") -> None:
        """Give a site the site-local liveness oracle: it avoids fetching
        from replicas it currently suspects, so failover stays symmetric
        with what the site could locally know."""
        det = self.detector
        if det is not None:
            proto._liveness = (
                lambda target, _self=proto.site: not det.suspects(_self, target)
            )

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
        self.recover(site)

    # ------------------------------------------------------------------
    # crash / recover primitives (also used interactively by Cluster)
    # ------------------------------------------------------------------
    def crash(self, site: int) -> None:
        """Kill ``site`` now: volatile state is lost, durable state kept."""
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
        if self.sites:
            self.sites[site].crash()
        if self.transport is not None:
            self.transport.on_site_crash(site)
        if self.detector is not None:
            # its own suspicions die with it (the transport cleared its
            # pauses)
            self.detector.note_crash(site)

    def recover(self, site: int) -> None:
        """Restore ``site`` from disk, replay its WAL, start catch-up."""
        if not self.net.is_down(site):
            raise RuntimeError(f"site {site} is not down")
        now = self.sim.now
        proto = self.protocols[site]
        disk = self.disks[site]
        checkpoint_age = self.crash_time[site] - disk.checkpoint_time
        assert disk.checkpoint is not None
        proto.restore(disk.checkpoint)
        replayed = proto.replay(disk.wal)
        downtime = now - self.crash_time[site]
        self._detected.discard(site)
        self.net.revive_site(site)
        if self.transport is not None:
            self.transport.on_site_recover(site)
        if self.detector is not None:
            self.detector.note_recover(site, range(self.net.n_sites), now)
        self.collector.record_restore(
            downtime_ms=downtime,
            wal_replayed=replayed,
            checkpoint_age_ms=checkpoint_age,
        )
        if self.tracer is not None:
            self.tracer.site_restore(site, now, downtime_ms=downtime,
                                     wal_replayed=replayed)
        # checkpoint the freshly rebuilt state so a repeat crash does not
        # replay the same WAL twice on top of the pre-crash checkpoint
        disk.install_checkpoint(proto.snapshot(), now)
        self.wake()
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
        return [p for p in range(self.net.n_sites)
                if p != site and p not in down]

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
        unacked = 0 if self.transport is None else self.transport.unacked_to(
            site, from_live_only=True, down=self.net.down)
        return caught_up(self.protocols[site], self._responses.get(site, {}),
                         self._live_peers(site), unacked)

    def _finish_catchup(self, site: int, *, forced: bool) -> None:
        self._catching_up.discard(site)
        self._responses.pop(site, None)
        duration = self.sim.now - self._catchup_started.pop(site)
        rounds = self._catchup_rounds.pop(site, 0)
        self.collector.record_catchup(duration, rounds=rounds, forced=forced)
        if self.tracer is not None:
            self.tracer.site_catchup(site, self.sim.now, duration_ms=duration,
                                     rounds=rounds, forced=forced)
        if self.sites:
            self.sites[site].recover()

    def _handle_packet(self, src: int, dst: int, packet: object,
                       dead: bool) -> bool:
        if isinstance(packet, HeartbeatPacket):
            if not dead and not self.net.is_down(dst):
                self._hear(dst, packet.origin)
            return True
        if isinstance(packet, SyncRequest):
            if dead or self.net.is_down(dst):
                return True
            self._hear(dst, src)
            resp = SyncResponse(
                origin=dst,
                target=packet.origin,
                round=packet.round,
                pending=self.protocols[dst].pending_count,
                digest=build_digest(self.protocols[dst], packet.origin),
            )
            size = (SYNC_RESPONSE_BASE_BYTES
                    + SYNC_RESPONSE_ENTRY_BYTES * len(resp.digest))
            self.collector.record_sync_message()
            self.net._transmit_raw(dst, packet.origin, resp, size)
            return True
        if isinstance(packet, SyncResponse):
            if dead or self.net.is_down(dst):
                return True
            self._hear(dst, src)
            site = packet.target
            if site != dst or site not in self._catching_up:
                return True  # stale response from an abandoned catch-up
            self._responses[site][packet.origin] = packet
            if self._caught_up(site):
                self._finish_catchup(site, forced=False)
            return True
        return False

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
        net = self.net
        sites, down = range(net.n_sites), net.down
        det = self.detector
        if det is not None:
            inj = net.faults
            now = self.sim.now
            forever = (
                inj.unhealed_partitions(now) if inj is not None else []
            )
            for o in sites:
                if o in down:
                    continue
                for s in sites:
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
                    for src in sites:
                        if src in down:
                            continue
                        ch = self.transport._channels.get((src, d))
                        if (ch is not None and ch.sender.unacked
                                and (src, d) not in self.transport.paused_pairs):
                            return False
            if self.transport.unacked_between_live(down):
                return False
        dead_forever = self.down_forever()
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

        Covers crash-stopped sites and live sites stranded on a fetch
        into a dead-forever site.
        """
        lost = 0
        dead_forever = self.down_forever()
        for site in self.sites:
            sid = site.site_id
            if site.finished:
                continue
            if sid in dead_forever or (
                dead_forever and site.protocol._fetches
            ):
                lost += len(site.schedule) - site.completed_ops
        return lost


def install_crash_recovery(
    sim: "Simulator",
    network: "Network",
    protocols: "list[CausalProtocol]",
    *,
    crashes: Sequence[CrashEvent] = (),
    checkpoint_interval_ms: Optional[float] = None,
    detector_policy: Optional[DetectorPolicy] = None,
    collector: "MetricsCollector",
    tracer: "Optional[Tracer]" = None,
    sites: "Optional[list[Site]]" = None,
) -> CrashRecoveryManager:
    """Build and start the crash-recovery stack.

    A failure detector (and hence heartbeat traffic) runs only under a
    ``detector_policy``; planned crashes need one.  Crashing at all
    requires the chaos transport, because held-for-dead traffic lives
    in its retransmit queues.
    """
    if crashes and detector_policy is None:
        raise ValueError("planned crashes need a failure detector policy")
    manager = CrashRecoveryManager(
        sim, network, protocols, crashes=crashes,
        checkpoint_interval_ms=(DEFAULT_CHECKPOINT_INTERVAL_MS
                                if checkpoint_interval_ms is None
                                else checkpoint_interval_ms),
        detector_policy=detector_policy, collector=collector,
        tracer=tracer, sites=sites,
    )
    manager.start()
    return manager
