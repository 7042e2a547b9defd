"""Reliable FIFO message-passing network.

Models the paper's communication substrate (Section IV): sites connected
pairwise by reliable TCP channels that deliver without loss, duplication,
or reordering *within a channel*.  Messages on different channels are
mutually unordered — that asynchrony is exactly what the protocols'
activation predicates must tolerate, so the latency model matters for
exercising them even though message *counts and sizes* are latency-free.

Latency models are pluggable.  FIFO order is enforced structurally: if a
sampled latency would overtake the channel's previous delivery, delivery
is pushed just after it (TCP would have done the same via in-order byte
streams).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ..core.errors import DepartedSiteError, MembershipError
from .engine import Simulator
from .faults import NO_FAULT, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metrics.collector import MetricsCollector
    from ..obs.tracer import Tracer
    from .reliable import RetransmitPolicy

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PerPairLatency",
    "AdversarialLatency",
    "Network",
]

#: Minimum spacing used to keep FIFO deliveries strictly ordered.
FIFO_EPSILON = 1e-9


class LatencyModel(abc.ABC):
    """Strategy object producing one-way delays (ms) per message."""

    @abc.abstractmethod
    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        """Return the one-way network delay in milliseconds for one message."""

    def local_delay(self) -> float:
        """Delay for a site messaging itself (loopback); effectively zero."""
        return 0.0


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay_ms``.  Good for exact tests."""

    delay_ms: float = 50.0

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.delay_ms


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Delay uniform in [low_ms, high_ms] — the default WAN-ish model."""

    low_ms: float = 10.0
    high_ms: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.low_ms <= self.high_ms:
            raise ValueError(f"invalid latency range [{self.low_ms}, {self.high_ms}]")

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low_ms, self.high_ms))


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Heavy-tailed delays (median ``median_ms``, shape ``sigma``).

    Approximates TCP retransmission spikes ("slow start" effects the
    paper mentions) without modelling TCP itself.
    """

    median_ms: float = 40.0
    sigma: float = 0.6

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(self.median_ms * np.exp(rng.normal(0.0, self.sigma)))


class PerPairLatency(LatencyModel):
    """Deterministic per-pair base delays plus optional uniform jitter.

    ``matrix[i][j]`` is the base one-way delay from site i to site j;
    useful for modelling geo-distributed topologies where some replica
    pairs are much farther apart than others.
    """

    def __init__(self, matrix: Sequence[Sequence[float]], jitter_ms: float = 0.0) -> None:
        self._matrix = np.asarray(matrix, dtype=float)
        if self._matrix.ndim != 2 or self._matrix.shape[0] != self._matrix.shape[1]:
            raise ValueError("latency matrix must be square")
        if (self._matrix < 0).any():
            raise ValueError("latencies must be non-negative")
        if jitter_ms < 0:
            raise ValueError("jitter must be non-negative")
        self._jitter = jitter_ms

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        base = float(self._matrix[src, dst])
        if self._jitter:
            base += float(rng.uniform(0.0, self._jitter))
        return base


@dataclass(frozen=True)
class AdversarialLatency(LatencyModel):
    """Wildly varying delays designed to maximize cross-channel reordering.

    Used by fault-injection style tests: with delays spanning three orders
    of magnitude, multicast copies of causally related writes routinely
    arrive "backwards", so every activation-predicate code path gets
    exercised.
    """

    low_ms: float = 1.0
    high_ms: float = 1000.0

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        # Log-uniform: most mass at the extremes of reordering behaviour.
        lo, hi = np.log(self.low_ms), np.log(self.high_ms)
        return float(np.exp(rng.uniform(lo, hi)))


class Network:
    """Reliable FIFO transport layered on the event kernel.

    ``send`` delivers a single message; ``multicast`` fans a write's
    copies out to a destination list (one independent unicast per
    destination, as in the paper's ``Multicast(m)`` primitive — there
    is no network-level broadcast).  Receivers are callbacks registered
    per site.

    With ``bandwidth_bytes_per_ms`` set, message *size* costs time: each
    sender has one uplink that serializes its transmissions (a message
    occupies the uplink for ``size / bandwidth`` ms before its one-way
    propagation delay starts), so a 13 KB Full-Track matrix delays not
    only itself but every message queued behind it — the mechanism by
    which metadata size becomes latency.  The default (``None``) is the
    paper's model: size never affects timing.

    With a :class:`~repro.sim.faults.FaultInjector` attached, ``send``
    instead hands each message to the sender half of its channel in the
    :class:`~repro.sim.reliable.ReliableTransport` chaos stack (sequence
    numbers, cumulative acks, retransmission with backoff) over a lossy
    raw transmission path that drops, duplicates, delays, and partitions
    per the injector's plan.  Without one, the reliable path below is
    byte-for-byte the seed behavior.
    """

    def __init__(
        self,
        sim: Simulator,
        n_sites: int,
        latency: Optional[LatencyModel] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        bandwidth_bytes_per_ms: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
        collector: "MetricsCollector",
        retransmit: Optional["RetransmitPolicy"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if n_sites <= 0:
            raise ValueError("network needs at least one site")
        if bandwidth_bytes_per_ms is not None and bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive (or None for infinite)")
        self.sim = sim
        self.n_sites = n_sites
        self.latency = latency if latency is not None else UniformLatency()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.bandwidth = bandwidth_bytes_per_ms
        # per-sender uplink: simulated time until which it is occupied
        self._uplink_busy_until: dict[int, float] = {}
        self._receivers: dict[int, Callable[[int, object], None]] = {}
        # seed path: per directed channel, the last scheduled delivery
        # (the FIFO floor the next send on it is clamped above)
        self._fifo_floor: dict[tuple[int, int], float] = {}
        # Plain-uniform latency models admit block draws: a numpy
        # Generator consumes the bit stream identically for one
        # uniform() call per message and for a block of 256, so the
        # sampled delays are byte-identical while the per-message numpy
        # dispatch overhead is paid once per block.  Any other model
        # (pair-dependent, shaped) keeps the per-call path.
        if type(self.latency) is UniformLatency:
            self._uniform_buf: Optional[list[float]] = []
            self._uniform_lo = self.latency.low_ms
            self._uniform_hi = self.latency.high_ms
        else:
            self._uniform_buf = None
            self._uniform_lo = self._uniform_hi = 0.0
        self._uniform_pos = 0
        self.total_messages = 0
        # fault injection: paused sites hold their inbound deliveries
        # (per-channel FIFO preserved) until resumed
        self._paused: set[int] = set()
        self._held: dict[int, list[tuple[int, object]]] = {}
        # The one record of site liveness: the crash manager (its
        # checkpoint and heartbeat ticks) and the view manager read these
        # two sets, and only crash_site / revive_site / retire_site write
        # them.  Packets to a down site are dropped at the wire
        # (crash-recovery); departed sites never come back — traffic
        # involving them is dropped (counted), sends to them raise.
        self.down: set[int] = set()
        self.departed: set[int] = set()
        self.departed_drops = 0
        # seed-path app messages scheduled but not yet handed to the
        # receiver; the view-change fence drains on this reaching zero
        self._app_in_flight = 0
        #: the run's one store of counts: injected faults, dead-site
        #: drops and (through the chaos transport) channel events
        self.collector = collector
        # observability (None = untraced, zero overhead)
        self.tracer = tracer
        # chaos stack (None = the default reliable path, zero overhead)
        self.faults = faults
        if faults is not None:
            from .reliable import ReliableTransport

            self.transport: Optional[ReliableTransport] = ReliableTransport(
                self, faults, policy=retransmit
            )
        else:
            self.transport = None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def pause_site(self, site: int) -> None:
        """Stop delivering to ``site`` (a stalled process / GC pause).

        Messages destined to it are held in arrival order and flushed on
        :meth:`resume_site`; FIFO per channel is preserved because the
        hold queue keeps the delivery order the channels established.
        Outbound traffic from the site is unaffected (the paper's model
        has no crash-stop — processes are slow, not faulty).
        """
        self._check_site(site)
        self._paused.add(site)
        self._held.setdefault(site, [])

    def resume_site(self, site: int) -> None:
        """Flush everything held for ``site`` and resume normal flow.

        The backlog is *posted* to the simulator (zero-delay entries,
        preserving hold order via the kernel's tie-breaking)
        rather than delivered synchronously here, so delivery timestamps
        and downstream metrics stay consistent with the kernel clock —
        run the simulator (``settle``/``advance``/``run``) to observe
        the flushed deliveries.
        """
        self._check_site(site)
        if site not in self._paused:
            return
        self._paused.discard(site)
        held = self._held.pop(site, [])
        if held and site not in self._receivers:
            raise RuntimeError(f"no receiver registered for site {site}")
        now = self.sim.now
        for src, message in held:
            self._app_in_flight += 1
            self.sim.post(now, self._deliver_scheduled, src, site, message)

    def is_paused(self, site: int) -> bool:
        return site in self._paused

    # ------------------------------------------------------------------
    # crash-recovery (chaos path only; see repro.sim.crash)
    # ------------------------------------------------------------------
    def crash_site(self, site: int) -> None:
        """Mark ``site`` down: packets addressed to it vanish at the wire.

        Packets already in flight *from* the site still arrive — they
        left its NIC before the crash.  Requires the chaos transport;
        losing a message on the seed's reliable path would be
        unrecoverable by construction.
        """
        self._check_site(site)
        if self.transport is None:
            raise RuntimeError(
                "crash_site() needs the chaos transport (fault_plan=...); "
                "the reliable seed path cannot lose messages"
            )
        self.down.add(site)

    def revive_site(self, site: int) -> None:
        self._check_site(site)
        self.down.discard(site)

    def is_down(self, site: int) -> bool:
        return site in self.down

    def held_count(self, site: int) -> int:
        """Messages currently held for a paused site."""
        return len(self._held.get(site, ()))

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def add_site(self) -> int:
        """Admit one new site; returns its (stable, never-reused) id.

        Only size-free latency models can admit sites: a fixed n x n
        delay matrix has no row for the newcomer.
        """
        if isinstance(self.latency, PerPairLatency):
            raise MembershipError(
                "PerPairLatency has a fixed delay matrix and cannot "
                "admit new sites; use a sampled latency model for churn"
            )
        new_id = self.n_sites
        self.n_sites += 1
        return new_id

    def retire_site(self, site: int) -> None:
        """Mark ``site`` departed: its id stays allocated forever, but
        all traffic involving it is dropped (counted) and sends *to* it
        raise :class:`~repro.sim.membership.DepartedSiteError`."""
        self._check_site(site)
        self.departed.add(site)
        self._paused.discard(site)
        self.departed_drops += len(self._held.pop(site, ()))
        self.down.discard(site)

    @property
    def members(self) -> tuple[int, ...]:
        """The current view's site ids, ascending: every id issued so far
        except the departed (a down site is still a member)."""
        departed = self.departed
        return tuple(s for s in range(self.n_sites) if s not in departed)

    def is_member(self, site: int) -> bool:
        return 0 <= site < self.n_sites and site not in self.departed

    @property
    def app_messages_in_flight(self) -> int:
        """Seed-path app messages scheduled but not yet delivered."""
        return self._app_in_flight

    # ------------------------------------------------------------------
    # overload & backpressure (chaos path only; see repro.sim.reliable)
    # ------------------------------------------------------------------
    def overloaded(self, site: int) -> bool:
        """True while any of ``site``'s outbound channels has windowed
        packets out into its backlog — the transport's backpressure
        signal.  Always False on the seed path (no transport)."""
        transport = self.transport
        return transport is not None and transport.overloaded(site)

    def check_overload_admission(self, site: int) -> None:
        """Raise :class:`~repro.sim.reliable.OverloadError` when
        ``site``'s backlog exceeds the policy's shed threshold."""
        transport = self.transport
        if transport is not None:
            transport.check_overload_admission(site)

    def count_backpressure_delay(self, site: int) -> None:
        """Account one backpressure-induced operation delay."""
        transport = self.transport
        if transport is not None:
            transport.count("backpressure_delay", site)

    # ------------------------------------------------------------------
    def register(self, site: int, receiver: Callable[[int, object], None]) -> None:
        """Attach the receive callback for ``site``: ``receiver(src, msg)``."""
        self._check_site(site)
        self._receivers[site] = receiver

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range [0, {self.n_sites})")

    # ------------------------------------------------------------------
    def _sample_latency(self, src: int, dst: int) -> float:
        """One cross-site delay draw; block-buffered for plain uniform.

        The buffered path consumes the generator's bit stream exactly as
        per-message ``uniform()`` calls would (verified: numpy block
        draws of doubles are stream-identical to repeated single draws),
        so sampled delays — and therefore traces — are unchanged.
        """
        buf = self._uniform_buf
        if buf is None:
            return self.latency.sample(src, dst, self.rng)
        pos = self._uniform_pos
        if pos >= len(buf):
            buf = self.rng.uniform(self._uniform_lo, self._uniform_hi, 256).tolist()
            self._uniform_buf = buf
            pos = 0
        self._uniform_pos = pos + 1
        return buf[pos]  # type: ignore[no-any-return]

    def send(self, src: int, dst: int, message: object,
             *, size_bytes: float = 0.0) -> Optional[float]:
        """Send one message; returns its scheduled delivery time (ms).

        FIFO per channel: a message never overtakes an earlier message on
        the same (src, dst) channel, whatever the sampled latencies say.
        Under a finite bandwidth, ``size_bytes`` first occupies the
        sender's uplink (serialized across ALL of the sender's outgoing
        messages), then the propagation delay applies.

        With a fault injector attached, the message instead enters the
        reliable chaos stack; the return value is then the scheduled
        arrival of the *first transmission attempt* (None if the
        injector dropped it — a retransmission will deliver it later).
        """
        self._check_site(src)
        self._check_site(dst)
        if src in self.departed:
            # a straggler timer or scheduled event from a retired site;
            # its output is irrelevant by construction (it was drained
            # before departure), so drop rather than crash the run
            self.departed_drops += 1
            return None
        if dst in self.departed:
            raise DepartedSiteError(dst, "departed")
        transport = self.transport
        if transport is not None:
            ch = (transport._channels.get((src, dst))
                  or transport.channel(src, dst))
            return ch.sender.send(message, size_bytes)
        return self._fan_out(src, (dst,), (message,), (size_bytes,))

    def multicast(self, src: int, dests: Sequence[int],
                  messages: Sequence[object], sizes: Sequence[float]) -> None:
        """``send`` ``messages[i]`` with ``sizes[i]`` to ``dests[i]``, in order.

        What cannot differ between destinations (the source's range
        check, attribute lookups) is done once and each destination gets
        the rest of ``send`` — so every packet's and delivery's ``(time,
        seq)`` is what a loop of ``send`` calls produces.  Under a fault
        plan each copy goes straight to its channel's sender half.
        """
        transport = self.transport
        if transport is None:
            if self.departed:
                for dst, message, size in zip(dests, messages, sizes):
                    self.send(src, dst, message, size_bytes=size)
                return
            self._check_site(src)
            self._fan_out(src, dests, messages, sizes)
            return
        self._check_site(src)
        n_sites = self.n_sites
        departed = self.departed
        channels = transport._channels
        for dst, message, size in zip(dests, messages, sizes):
            if not 0 <= dst < n_sites:
                self._check_site(dst)  # raises
            if departed:
                if src in departed:
                    # see send: a straggler from a retired site
                    self.departed_drops += 1
                    continue
                if dst in departed:
                    raise DepartedSiteError(dst, "departed")
            ch = channels.get((src, dst)) or transport.channel(src, dst)
            ch.sender.send(message, size)

    def _fan_out(self, src: int, dests: Sequence[int],
                 messages: Sequence[object], sizes: Sequence[float]) -> float:
        """Seed-path body of ``send`` / ``multicast``: per destination, in
        order, a range check, one latency draw, the FIFO clamp and one
        posted kernel entry.  Returns the last delivery time."""
        now = delivery = self.sim.now
        bandwidth = self.bandwidth
        n_sites = self.n_sites
        fifo_floor = self._fifo_floor
        sample = self._sample_latency
        post = self.sim.post
        deliver = self._deliver_scheduled
        # the two network-wide counters take the loop's count once; the
        # finally keeps them exact when a bad destination raises midway
        posted = 0
        try:
            for dst, message, size_bytes in zip(dests, messages, sizes):
                if not 0 <= dst < n_sites:
                    self._check_site(dst)  # raises
                departure = now
                if bandwidth is not None and size_bytes > 0:
                    start = max(now, self._uplink_busy_until.get(src, 0.0))
                    departure = start + size_bytes / bandwidth
                    self._uplink_busy_until[src] = departure
                if src == dst:
                    delay = self.latency.local_delay()
                else:
                    delay = sample(src, dst)
                key = (src, dst)
                delivery = max(departure + delay,
                               fifo_floor.get(key, -1.0) + FIFO_EPSILON)
                fifo_floor[key] = delivery
                post(delivery, deliver, src, dst, message)
                posted += 1
        finally:
            self.total_messages += posted
            self._app_in_flight += posted
        return delivery

    def _deliver_scheduled(self, src: int, dst: int, message: object) -> None:
        """Kernel callback of one seed-path delivery event."""
        self._app_in_flight -= 1
        self._deliver_app(src, dst, message)

    def _deliver_app(self, src: int, dst: int, message: object) -> None:
        """Hand a message up to the application, honoring paused sites."""
        if dst in self.departed:
            self.departed_drops += 1
            return
        if dst in self._paused:
            self._held[dst].append((src, message))
            return
        receiver = self._receivers.get(dst)
        if receiver is None:
            raise RuntimeError(f"no receiver registered for site {dst}")
        tracer = self.tracer
        if tracer is None:
            receiver(src, message)
            return
        # the deliver event is the causal context for everything the
        # receiving protocol does synchronously (buffer, apply, reply)
        deliver_id = tracer.msg_deliver(src, dst, message, ts=self.sim.now)
        if deliver_id is None:
            receiver(src, message)
            return
        tracer.push(deliver_id)
        try:
            receiver(src, message)
        finally:
            tracer.pop()

    def _transmit_raw(self, src: int, dst: int, packet: object,
                      size_bytes: float) -> Optional[float]:
        """One physical packet transmission over the *lossy* substrate.

        Chaos path only (the reliable layer calls this for data packets,
        retransmissions, and acks; the crash stack for heartbeats and
        sync).  The fault injector decides drop / duplicate /
        latency-spike per attempt; unlike the default path there is NO
        structural FIFO clamp — sampled latencies may reorder packets,
        and the reliable layer's reassembly buffer is what restores
        order.  Each surviving copy is posted straight to
        :meth:`ReliableTransport.arrive <repro.sim.reliable.ReliableTransport.arrive>`.
        Returns the scheduled arrival of the primary copy, or None when
        it was dropped.
        """
        sim = self.sim
        now = departure = sim.now
        if self.bandwidth is not None and size_bytes > 0:
            # dropped packets still occupied the sender's uplink: loss
            # happens in the network, after the bytes left the NIC
            start = max(departure, self._uplink_busy_until.get(src, 0.0))
            departure = start + size_bytes / self.bandwidth
            self._uplink_busy_until[src] = departure
        decision = self.faults.decide(src, dst, now)
        self.total_messages += 1
        duplicates, extra_delay_ms = 0, 0.0
        tracer = self.tracer
        if decision is not NO_FAULT or tracer is not None:
            # one transmission in ten at the benchmark's rates; the rest
            # pay one latency draw and one posted entry
            drop, duplicates, extra_delay_ms, severed = decision
            if tracer is not None:
                # DataPackets are traced by their application payload;
                # other packets (acks) have no span, only a series count
                tracer.msg_attempt(
                    src, dst, getattr(packet, "payload", packet), ts=now,
                    dropped=drop, partition=severed,
                    spike_ms=extra_delay_ms, duplicates=duplicates,
                )
            if drop:
                self.collector.record_injected_drop(partition=severed)
                return None
            if extra_delay_ms:
                self.collector.record_injected_spike(extra_delay_ms)
        if src == dst:
            delay = self.latency.local_delay()
        else:
            delay = self._sample_latency(src, dst)
        delivery = departure + delay + extra_delay_ms
        arrive = self.transport.arrive
        sim.post(delivery, arrive, src, dst, packet)
        for _ in range(duplicates):
            dup_delay = (self.latency.local_delay() if src == dst
                         else self._sample_latency(src, dst))
            self.total_messages += 1
            self.collector.record_injected_dup()
            sim.post(departure + dup_delay + extra_delay_ms, arrive,
                     src, dst, packet)
        return delivery
