"""Heartbeat failure detector with timeout and exponential backoff.

Every live site multicasts a small heartbeat each ``heartbeat_interval_ms``
over the *lossy* substrate — heartbeats are subject to the fault
injector like any packet, so drops, spikes, and partitions produce
realistic (and measured) false suspicions.  Each ordered pair
``(observer, subject)`` keeps the last time the observer heard from the
subject; silence past the pair's current timeout raises a suspicion.

A suspicion pauses the observer's reliable channel to the subject
(:meth:`~repro.core.netpolicy.ChannelHost.pause_pair`): sends keep
queueing durably but retransmission timers stop burning while the
subject cannot answer.  Any packet from the subject — the next
heartbeat, or an anti-entropy sync message during rejoin — clears the
suspicion and resumes the channel with an eager flush.

The per-pair timeout backs off exponentially on every suspicion
(capped), so a flaky channel that keeps losing heartbeats stops
flapping; a *genuine* rejoin resets the subject's column to the base
timeout (the ground truth comes from the crash-recovery manager, which
the simulation — unlike the sites — is allowed to know).

The periodic tick would keep the simulator alive forever, so it consults
the manager's ``quiescent()`` predicate and stops rescheduling once the
run is over; ``wake()`` restarts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metrics.collector import MetricsCollector
    from ..obs.tracer import Tracer
    from .engine import ScheduledEvent, Simulator
    from .network import Network

__all__ = ["DetectorPolicy", "HeartbeatPacket", "FailureDetector"]


@dataclass(frozen=True)
class DetectorPolicy:
    """Failure-detector parameters."""

    #: spacing of each live site's heartbeat multicast
    heartbeat_interval_ms: float = 75.0
    #: base silence before an observer suspects a subject; must span
    #: several heartbeat intervals or loss alone triggers suspicions
    timeout_ms: float = 300.0
    #: multiplicative backoff of a pair's timeout after each suspicion
    backoff: float = 2.0
    #: cap on the backed-off timeout
    max_timeout_ms: float = 2400.0
    #: modelled wire size of one heartbeat
    heartbeat_size_bytes: float = 16.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.timeout_ms <= self.heartbeat_interval_ms:
            raise ValueError("timeout must exceed the heartbeat interval")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_timeout_ms < self.timeout_ms:
            raise ValueError("max timeout must be >= base timeout")


@dataclass(frozen=True)
class HeartbeatPacket:
    """I-am-alive beacon from ``origin``."""

    origin: int


class FailureDetector:
    """Per-pair suspicion state for one network."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        policy: Optional[DetectorPolicy] = None,
        *,
        collector: "Optional[MetricsCollector]" = None,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        if network.transport is None:
            raise RuntimeError(
                "the failure detector needs the chaos transport "
                "(fault_plan=...); channel pausing lives there"
            )
        self.sim = sim
        self.net = network
        self.transport = network.transport
        self.policy = policy if policy is not None else DetectorPolicy()
        self.collector = collector
        self.tracer = tracer
        self.n = network.n_sites
        # elastic membership: who currently beats and watches; the view
        # manager repoints this at the live view when churn is enabled
        self.members_fn: Callable[[], tuple[int, ...]] = (
            lambda: tuple(range(self.net.n_sites))
        )
        self._last_heard: dict[tuple[int, int], float] = {}
        self._timeout: dict[tuple[int, int], float] = {}
        self.suspected: set[tuple[int, int]] = set()
        #: lifetime tallies (the metrics registry reads them at quiescence)
        self.heartbeats_sent = 0
        self.suspicions = 0
        self.false_suspicions = 0
        self.recoveries = 0
        # wired by the crash-recovery manager
        self.is_down: Callable[[int], bool] = lambda site: False
        self.quiescent: Callable[[], bool] = lambda: False
        self.on_suspect: Optional[Callable[[int, int, bool], None]] = None
        self._tick_event: "Optional[ScheduledEvent]" = None
        self._started = False
        self._stopped = False
        self.transport.register_packet_handler(self._handle_packet)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("failure detector already started")
        self._started = True
        now = self.sim.now
        base = self.policy.timeout_ms
        members = self.members_fn()
        for o in members:
            for s in members:
                if o != s:
                    self._last_heard[(o, s)] = now
                    self._timeout[(o, s)] = base
        self._tick_event = self.sim.schedule(
            self.policy.heartbeat_interval_ms, self._tick, label="fd.tick"
        )

    def suspects(self, observer: int, subject: int) -> bool:
        return (observer, subject) in self.suspected

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._tick_event = None
        if self.quiescent():
            self._stopped = True
            return
        now = self.sim.now
        size = self.policy.heartbeat_size_bytes
        members = self.members_fn()
        for origin in members:
            if self.is_down(origin):
                continue  # the dead don't beat
            for dst in members:
                if dst == origin:
                    continue
                self.heartbeats_sent += 1
                self.net._transmit_raw(origin, dst, HeartbeatPacket(origin), size)
        for observer in members:
            if self.is_down(observer):
                continue
            for subject in members:
                if subject == observer or (observer, subject) in self.suspected:
                    continue
                pair = (observer, subject)
                if now - self._last_heard[pair] >= self._timeout[pair]:
                    self._suspect(observer, subject)
        self._tick_event = self.sim.schedule(
            self.policy.heartbeat_interval_ms, self._tick, label="fd.tick"
        )

    def _suspect(self, observer: int, subject: int) -> None:
        pair = (observer, subject)
        self.suspected.add(pair)
        self.transport.pause_pair(observer, subject)
        self._timeout[pair] = min(
            self._timeout[pair] * self.policy.backoff, self.policy.max_timeout_ms
        )
        actually_down = self.is_down(subject)
        self.suspicions += 1
        if not actually_down:
            self.false_suspicions += 1
            if self.collector is not None:
                self.collector.record_false_suspicion()
        if self.tracer is not None:
            self.tracer.detector_suspect(observer, subject, self.sim.now,
                                         false_positive=not actually_down)
        if self.on_suspect is not None:
            self.on_suspect(observer, subject, actually_down)

    def observe(self, observer: int, subject: int) -> None:
        """Proof of life: ``observer`` just heard from ``subject``."""
        pair = (observer, subject)
        self._last_heard[pair] = self.sim.now
        if pair in self.suspected:
            self.suspected.discard(pair)
            self.transport.resume_pair(observer, subject, flush=True)
            self.recoveries += 1
            if self.tracer is not None:
                self.tracer.detector_alive(observer, subject, self.sim.now)

    def _handle_packet(self, src: int, dst: int, packet: object,
                       dead: bool) -> bool:
        if not isinstance(packet, HeartbeatPacket):
            return False
        if not dead and not self.is_down(dst):
            self.observe(dst, packet.origin)
        return True

    # ------------------------------------------------------------------
    # crash-recovery manager hooks
    # ------------------------------------------------------------------
    def note_crash(self, site: int) -> None:
        """The crashed site's *observer* state is volatile — its own
        suspicions die with it (the transport cleared its pauses)."""
        for pair in [p for p in sorted(self.suspected) if p[0] == site]:
            self.suspected.discard(pair)

    def note_recover(self, site: int) -> None:
        """Fresh grace period for the rejoined observer; peers watching
        it return to the base timeout (the backoff punished a crash, not
        a flaky channel)."""
        now = self.sim.now
        base = self.policy.timeout_ms
        for other in self.members_fn():
            if other == site:
                continue
            self._last_heard[(site, other)] = now
            self._timeout[(site, other)] = base
            self._timeout[(other, site)] = base

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def add_member(self, site: int) -> None:
        """Seed pair state for a joiner: full grace period both ways.

        Call *after* the view already includes ``site`` so the next tick
        finds every pair initialized.
        """
        now = self.sim.now
        base = self.policy.timeout_ms
        self.n = max(self.n, site + 1)
        for other in self.members_fn():
            if other == site:
                continue
            for pair in ((site, other), (other, site)):
                self._last_heard[pair] = now
                self._timeout[pair] = base

    def remove_member(self, site: int) -> None:
        """Drop all pair state involving a departed site.

        Suspicions of it (or by it) are void, not false positives —
        the departure is a membership event, not a detector outcome.
        """
        for pair in [p for p in sorted(self.suspected) if site in p]:
            self.suspected.discard(pair)
        for store in (self._last_heard, self._timeout):
            for pair in [p for p in store if site in p]:
                del store[pair]

    def wake(self) -> None:
        """Restart the tick after a quiescent stop (and re-baseline:
        silence during the stop was idleness, not death)."""
        if not self._started or not self._stopped or self._tick_event is not None:
            return
        self._stopped = False
        now = self.sim.now
        for pair in self._last_heard:
            self._last_heard[pair] = max(self._last_heard[pair], now)
        self._tick_event = self.sim.schedule(
            self.policy.heartbeat_interval_ms, self._tick, label="fd.tick"
        )
