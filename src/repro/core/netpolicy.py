"""The reliable channel: one state machine, driven by two substrates.

Every protocol in the paper assumes loss-free, duplicate-free FIFO
channels between every pair of sites.  This module manufactures that
guarantee from a transport that loses, duplicates and reorders, and it
is the only place in the tree that does:

* :class:`ChannelSender` — sequence numbers, a ``send_window``-bounded
  in-flight set with a promote-on-ack backlog, a retransmission timer
  fed by the Jacobson/Karels :class:`RtoEstimator` under Karn's rule,
  a circuit breaker (``breaker_failures`` consecutive timeouts -> one
  probe per timeout until an ack makes progress), a paced flush
  (``heal_burst`` packets at once, the rest spread over roughly one
  RTT) and pause/resume while the destination is suspected down;
* :class:`ChannelReceiver` — cumulative acks, duplicate suppression and
  a ``reorder_window``-bounded reassembly buffer;
* :class:`ChannelHost` — what a substrate supplies (``transmit``,
  ``deliver``, ``send_ack``, ``jitter``, ``count`` and a
  :class:`~repro.core.ports.Scheduler`) plus the state that spans one
  host's channels: the registry, suspicion pauses and the O(1) per-site
  backlog rollups behind backpressure and admission shedding.

The halves are substrate-pure — no RNG, no clock, no socket; time and
timers come from the host's scheduler — so ``repro check --effects``
certifies them with the rest of :mod:`repro.core`.  The simulator's host
is :class:`~repro.sim.reliable.ReliableTransport` (fault injector, kernel
timers); the live service's is
:class:`~repro.service.channel.ServiceTransport` (framed TCP links,
asyncio timers).  :class:`RetransmitPolicy` parameterizes both.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .ports import Scheduler, TimerHandle

__all__ = [
    "OverloadError",
    "RetransmitPolicy",
    "RtoEstimator",
    "DataPacket",
    "ChannelSender",
    "ChannelReceiver",
    "Channel",
    "ChannelHost",
]


class OverloadError(RuntimeError):
    """A write was refused because the site's outbound backlog exceeds
    the shed threshold — graceful degradation under overload, the
    transport analogue of PR-6's typed membership errors."""

    def __init__(self, site: int, backlog: int, threshold: int) -> None:
        super().__init__(
            f"site {site} is overloaded: {backlog} packets backlogged "
            f"(shed threshold {threshold}); retry once the backlog drains"
        )
        self.site = site
        self.backlog = backlog
        self.threshold = threshold


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retransmission timer + flow-control parameters (TCP-ish, simplified)."""

    #: initial retransmission timeout; also the fixed RTO when
    #: ``adaptive=False`` (must exceed one round trip or the sender
    #: retransmits spuriously — allowed, just wasteful)
    base_rto_ms: float = 250.0
    #: multiplicative backoff applied after every timeout
    backoff: float = 2.0
    #: cap on the backed-off timeout
    max_rto_ms: float = 8000.0
    #: uniform jitter added to each armed timer (desynchronizes channels)
    jitter_ms: float = 25.0
    #: estimate the RTO per channel (Jacobson/Karels SRTT + RTTVAR with
    #: Karn's rule); ``False`` keeps the fixed ``base_rto_ms`` policy
    adaptive: bool = True
    #: floor of the adaptive RTO (spurious-retransmit guard)
    min_rto_ms: float = 50.0
    #: max packets in flight (unacked) per channel; excess sends queue
    #: in the channel's backlog and raise backpressure
    send_window: int = 64
    #: max out-of-order packets buffered per receiving channel; overflow
    #: is dropped (the sender's timer re-covers it)
    reorder_window: int = 256
    #: max packets retransmitted in one burst by a heal flush; the rest
    #: is paced across roughly one estimated RTT
    heal_burst: int = 16
    #: consecutive timeouts that trip a channel's circuit breaker into
    #: degraded probe mode (0 disables the breaker)
    breaker_failures: int = 6
    #: how long a backpressured site delays its next operation
    backpressure_delay_ms: float = 5.0
    #: consecutive delays before an operation proceeds anyway (bounds
    #: admission latency so a stuck channel cannot starve the schedule)
    backpressure_limit: int = 64
    #: total backlogged packets at one sender site beyond which PUT
    #: admission sheds with :class:`OverloadError` (0 disables shedding)
    shed_backlog: int = 512

    def __post_init__(self) -> None:
        if self.base_rto_ms <= 0 or self.max_rto_ms < self.base_rto_ms:
            raise ValueError("need 0 < base_rto_ms <= max_rto_ms")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter_ms < 0:
            raise ValueError("jitter must be non-negative")
        if self.min_rto_ms <= 0 or self.min_rto_ms > self.max_rto_ms:
            raise ValueError("need 0 < min_rto_ms <= max_rto_ms")
        if self.send_window < 1:
            raise ValueError("send_window must be >= 1")
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        if self.heal_burst < 1:
            raise ValueError("heal_burst must be >= 1")
        if self.breaker_failures < 0:
            raise ValueError("breaker_failures must be >= 0")
        if self.backpressure_delay_ms <= 0:
            raise ValueError("backpressure_delay_ms must be positive")
        if self.backpressure_limit < 1:
            raise ValueError("backpressure_limit must be >= 1")
        if self.shed_backlog < 0:
            raise ValueError("shed_backlog must be >= 0")


class RtoEstimator:
    """Jacobson/Karels SRTT + RTTVAR estimator for one directed channel.

    Pure arithmetic over RTT samples in ms; the owning channel decides
    *which* samples to feed (Karn's rule: never sample a retransmitted
    packet's ack) and what to do with the resulting timeout.  Slotted —
    one instance per channel, touched on every ack.
    """

    __slots__ = ("policy", "srtt", "rttvar", "samples")

    def __init__(self, policy: RetransmitPolicy) -> None:
        self.policy = policy
        #: smoothed RTT in ms (None before the first sample)
        self.srtt: Optional[float] = None
        #: RTT mean-deviation in ms (0 before the first sample)
        self.rttvar = 0.0
        #: lifetime accepted sample count
        self.samples = 0

    def sample(self, rtt: float) -> None:
        """Fold one RTT sample in (alpha = 1/8, beta = 1/4)."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.rttvar += 0.25 * (abs(err) - self.rttvar)
            self.srtt += 0.125 * err
        self.samples += 1

    def fresh_rto(self) -> float:
        """RTO for a freshly-restarted timer: ``SRTT + 4·RTTVAR`` clamped
        to ``[min_rto_ms, max_rto_ms]`` when samples exist, the static
        base otherwise (also the fixed-policy path)."""
        policy = self.policy
        if not policy.adaptive or self.srtt is None:
            return policy.base_rto_ms
        rto = self.srtt + 4.0 * self.rttvar
        return min(max(rto, policy.min_rto_ms), policy.max_rto_ms)

    def reset(self) -> None:
        """Forget all samples (estimator state dies with its process)."""
        self.srtt = None
        self.rttvar = 0.0

    def __repr__(self) -> str:
        return (f"RtoEstimator(srtt={self.srtt}, rttvar={self.rttvar:.3f}, "
                f"samples={self.samples})")


class DataPacket(NamedTuple):
    """One application message on a channel; every transmission attempt
    of it carries this same object."""

    seq: int
    payload: object
    size_bytes: float


class ChannelSender:
    """Sender half of the directed channel ``src -> dst``."""

    __slots__ = (
        "host", "src", "dst", "_key", "_timer_label", "next_seq", "unacked",
        "backlog", "rto", "_timer", "retransmissions", "unacked_peak", "_est",
        "_sent_at", "_retx", "_flight_ok", "consecutive_timeouts", "degraded",
        "breaker_trips", "_flush_queue", "_pacer", "_pace_ms",
    )

    def __init__(self, host: "ChannelHost", src: int, dst: int) -> None:
        self.host = host
        self.src = src
        self.dst = dst
        self._key = (src, dst)
        self._timer_label = f"rto {src}->{dst}"
        self.next_seq = 0
        self.unacked: dict[int, DataPacket] = {}
        #: sends the window (or an open breaker) kept out of flight
        self.backlog: deque[DataPacket] = deque()
        self.rto = host.policy.base_rto_ms
        self._timer: Optional[TimerHandle] = None
        self.retransmissions = 0
        self.unacked_peak = 0
        self._est = RtoEstimator(host.policy)
        self._sent_at: dict[int, float] = {}
        # _retx is Karn's-rule taint; _flight_ok marks seqs with at
        # least one attempt the host's wire did not drop — a later
        # resend of those is spurious by construction
        self._retx: set[int] = set()
        self._flight_ok: set[int] = set()
        # circuit breaker
        self.consecutive_timeouts = 0
        self.degraded = False
        self.breaker_trips = 0
        # paced flush
        self._flush_queue: deque[int] = deque()
        self._pacer: Optional[TimerHandle] = None
        self._pace_ms = 0.0

    @property
    def paused(self) -> bool:
        """True while the host suspects ``dst`` is down: sends queue
        durably but nothing is transmitted and no timer burns."""
        return self._key in self.host.paused_pairs

    @property
    def pending(self) -> int:
        """Packets queued durably at this sender (in flight + backlog)."""
        return len(self.unacked) + len(self.backlog)

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT estimate in ms (None before the first sample)."""
        return self._est.srtt

    @property
    def rtt_samples(self) -> int:
        """Lifetime count of RTT samples accepted by the estimator."""
        return self._est.samples

    # ------------------------------------------------------------------
    def send(self, payload: object, size_bytes: float) -> Optional[float]:
        """Queue one message; returns its arrival time when the host's
        wire scheduled one (None: windowed out, paused, dropped, or a
        wire that does not know)."""
        packet = DataPacket(self.next_seq, payload, size_bytes)
        self.next_seq += 1
        host = self.host
        if (len(self.unacked) >= host.policy.send_window or self.degraded
                or self.backlog):
            # window full, breaker open, or earlier sends still waiting
            # (a paused pair with a freed slot): queue durably and signal
            # backpressure; on_ack promotes in seq order, so ``unacked``
            # is always in seq order and wholly below the backlog
            self.backlog.append(packet)
            host.note_backlog_grow(self.src, len(self.backlog) == 1)
            return None
        self.unacked[packet.seq] = packet
        if len(self.unacked) > self.unacked_peak:
            self.unacked_peak = len(self.unacked)
        if self._key in host.paused_pairs:  # self.paused, without the call
            return None
        self._sent_at[packet.seq] = host.scheduler.now
        delivery = host.transmit(self.src, self.dst, packet)
        if delivery is not None:
            self._flight_ok.add(packet.seq)
        self._arm_timer()
        return delivery

    def on_ack(self, cumulative: int) -> bool:
        """Every seq <= ``cumulative`` arrived.  Returns True when that
        left this sender with nothing unacked and nothing backlogged."""
        host = self.host
        adaptive = host.policy.adaptive
        now = host.scheduler.now
        progress = False
        for seq in list(self.unacked):  # in seq order
            if seq > cumulative:
                break
            progress = True
            del self.unacked[seq]
            sent = self._sent_at.pop(seq, None)
            self._flight_ok.discard(seq)
            if seq in self._retx:
                # Karn's rule: a retransmitted packet's ack is ambiguous
                self._retx.discard(seq)
            elif adaptive and sent is not None:
                self._est.sample(now - sent)
        if not progress:
            return False
        # forward progress: close the breaker and restart the timer from
        # the freshly-estimated timeout
        self.consecutive_timeouts = 0
        reopened = self.degraded
        if reopened:
            self.degraded = False
            host.count("breaker_close", self.src, self.dst)
        self.rto = self._est.fresh_rto()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if reopened and self.unacked:
            self.flush_retransmit()  # paced catch-up: the probe got through
        if self.backlog:
            self._promote_backlog()
        if self.unacked:
            self._arm_timer()
        elif not self.backlog:
            if self._pacer is not None:
                self._cancel_pacer()
            return True
        return False

    def _promote_backlog(self) -> None:
        """Move backlogged packets into freed window slots and transmit."""
        if self.degraded or not self.backlog or self.paused:
            return
        host = self.host
        window = host.policy.send_window
        now = host.scheduler.now
        promoted = 0
        while self.backlog and len(self.unacked) < window:
            packet = self.backlog.popleft()
            promoted += 1
            self.unacked[packet.seq] = packet
            self._sent_at[packet.seq] = now
            if host.transmit(self.src, self.dst, packet) is not None:
                self._flight_ok.add(packet.seq)
        if promoted:
            host.note_backlog_shrink(self.src, promoted, not self.backlog)
            if len(self.unacked) > self.unacked_peak:
                self.unacked_peak = len(self.unacked)
            self._arm_timer()

    def flush_retransmit(self) -> None:
        """Eagerly retransmit everything unacked (partition heal,
        suspicion cleared, rejoin, link re-established): at most
        ``heal_burst`` packets now, the rest paced across roughly one
        estimated RTT, so a healed link is not greeted with a burst
        that self-inflicts drops."""
        if not self.unacked or self.paused:
            return
        policy = self.host.policy
        self.consecutive_timeouts = 0
        if self.degraded:
            self.degraded = False
            self.host.count("breaker_close", self.src, self.dst)
        self.rto = self._est.fresh_rto()
        self._cancel_timer()
        self._cancel_pacer()
        seqs = list(self.unacked)
        burst = policy.heal_burst
        self._retransmit_seqs(seqs[:burst])
        rest = seqs[burst:]
        if rest:
            self._flush_queue.extend(rest)
            chunks = -(-len(rest) // burst)  # ceil division
            rtt_est = (self._est.srtt if self._est.srtt is not None
                       else policy.base_rto_ms / 2.0)
            self._pace_ms = max(rtt_est / chunks, 0.01)
            self._schedule_pacer()
        else:
            self._arm_timer()

    def recover(self) -> None:
        """The path to ``dst`` may work again: flush what is unacked
        (paced) and refill the window from the backlog."""
        self.flush_retransmit()
        self._promote_backlog()

    def _retransmit_seqs(self, seqs: list[int]) -> None:
        host = self.host
        src, dst = self._key
        for seq in seqs:
            packet = self.unacked[seq]
            self.retransmissions += 1
            self._retx.add(seq)  # Karn: this seq's RTT is ambiguous now
            if seq in self._flight_ok:
                # a prior attempt is (or was) en route undropped — this
                # resend duplicates work the network already did, or
                # covers for an ack the network lost
                host.count("spurious_retransmission", src, dst)
            host.count("retransmission", src, dst, packet.size_bytes,
                       packet.payload)
            if host.transmit(src, dst, packet) is not None:
                self._flight_ok.add(seq)

    def _on_timeout(self) -> None:
        self._timer = None
        if not self.unacked or self.paused:
            return
        policy = self.host.policy
        self.consecutive_timeouts += 1
        if (not self.degraded and policy.breaker_failures > 0
                and self.consecutive_timeouts >= policy.breaker_failures):
            # circuit breaker: the channel looks dead — stop multiplying
            # its pain and probe with a single packet per timeout
            self.degraded = True
            self.breaker_trips += 1
            self.host.count("breaker_trip", self.src, self.dst)
        # go-back-N: resend every unacked packet in sequence order (the
        # receiver's reorder buffer absorbs any that already arrived)
        seqs = list(self.unacked)
        self._retransmit_seqs(seqs[:1] if self.degraded else seqs)
        self.rto = min(self.rto * policy.backoff, policy.max_rto_ms)
        self._arm_timer()

    def _arm_timer(self) -> None:
        host = self.host
        if (self._timer is not None or self._pacer is not None
                or not self.unacked or self._key in host.paused_pairs):
            return
        self._timer = host.scheduler.schedule(
            self.rto + host.jitter(self.src, self.dst), self._on_timeout,
            label=self._timer_label,
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_pacer(self) -> None:
        self._pacer = self.host.scheduler.schedule(
            self._pace_ms, self._on_pacer,
            label=f"pace {self.src}->{self.dst}",
        )

    def _on_pacer(self) -> None:
        self._pacer = None
        if self.paused:
            self._flush_queue.clear()
            return
        burst = self.host.policy.heal_burst
        chunk: list[int] = []
        while self._flush_queue and len(chunk) < burst:
            seq = self._flush_queue.popleft()
            if seq in self.unacked:  # skip anything acked meanwhile
                chunk.append(seq)
        if chunk:
            self._retransmit_seqs(chunk)
        if self._flush_queue:
            self._schedule_pacer()
        elif self.unacked:
            self._arm_timer()

    def _cancel_pacer(self) -> None:
        self._flush_queue.clear()
        if self._pacer is not None:
            self._pacer.cancel()
            self._pacer = None

    # ------------------------------------------------------------------
    # lifecycle, driven by the host
    # ------------------------------------------------------------------
    def park(self) -> None:
        """Stop the timer and the pacer; the queues stay (a pause, a
        crash of ``src``, or the host closing)."""
        self._cancel_timer()
        self._cancel_pacer()

    def resume(self, *, flush: bool) -> None:
        """The pause on this pair was lifted: flush now, or just re-arm
        the timer at the freshly-estimated timeout."""
        if not self.pending:
            return
        if flush:
            self.recover()
        else:
            self.rto = self._est.fresh_rto()
            self._arm_timer()

    def on_crash(self) -> None:
        """``src`` crashed: its timers, estimator, breaker and flight
        bookkeeping are volatile and die with it; the unacked/backlog
        queues and the sequence counter mirror durable state and stay."""
        self.park()
        self._est.reset()
        self._sent_at.clear()
        self._retx.clear()
        self._flight_ok.clear()
        self.consecutive_timeouts = 0
        self.degraded = False

    def on_peer_crash(self) -> None:
        """``dst`` crashed: whatever was in flight toward it died on the
        wire, so a later resend of it is not spurious."""
        self._flight_ok.clear()

    def discard(self) -> None:
        """The channel is void (an endpoint left for good): stop timers
        and drop the queues, releasing their share of the rollups."""
        self.park()
        if self.backlog:
            self.host.note_backlog_shrink(self.src, len(self.backlog), True)
            self.backlog.clear()
        self.unacked.clear()

    def __repr__(self) -> str:
        return (f"<ChannelSender {self.src}->{self.dst} "
                f"next_seq={self.next_seq} unacked={len(self.unacked)} "
                f"backlog={len(self.backlog)}>")


class ChannelReceiver:
    """Receiver half of the directed channel ``src -> dst`` (kept at
    ``dst``): in-order exactly-once delivery and cumulative acks."""

    __slots__ = ("host", "src", "dst", "next_expected", "reorder",
                 "duplicate_drops", "reorder_peak", "reorder_overflows")

    def __init__(self, host: "ChannelHost", src: int, dst: int) -> None:
        self.host = host
        self.src = src
        self.dst = dst
        self.next_expected = 0
        #: out-of-order payloads by seq, at most ``reorder_window``
        self.reorder: dict[int, object] = {}
        self.duplicate_drops = 0
        self.reorder_peak = 0
        self.reorder_overflows = 0

    def on_data(self, seq: int, payload: object) -> None:
        host = self.host
        if seq < self.next_expected or seq in self.reorder:
            # retransmit of something already received: suppress, but
            # still ack so the sender stops resending
            self.duplicate_drops += 1
            host.count("duplicate_drop", self.src, self.dst)
        elif seq == self.next_expected:
            # in order: always taken — it drains the buffer, never grows it
            self.next_expected += 1
            host.deliver(self.src, self.dst, payload)
            while self.next_expected in self.reorder:
                ready = self.reorder.pop(self.next_expected)
                self.next_expected += 1
                host.deliver(self.src, self.dst, ready)
        elif len(self.reorder) >= host.policy.reorder_window:
            # bounded reassembly: the buffer is full of other gaps, so
            # the out-of-order packet is dropped; the cumulative ack
            # below shows the sender where the gap starts and its timer
            # re-covers the loss
            self.reorder_overflows += 1
            host.count("reorder_overflow", self.src, self.dst)
        else:
            self.reorder[seq] = payload
            if len(self.reorder) > self.reorder_peak:
                self.reorder_peak = len(self.reorder)
        host.send_ack(self.dst, self.src, self.next_expected - 1)

    def on_crash(self) -> None:
        """``dst`` crashed: the reassembly buffer is volatile (all of it
        was still unacked at the sender, so nothing acked is lost);
        ``next_expected`` mirrors durable state and stays."""
        self.reorder.clear()

    def __repr__(self) -> str:
        return (f"<ChannelReceiver {self.src}->{self.dst} "
                f"expected={self.next_expected} buffered={len(self.reorder)}>")


class Channel(NamedTuple):
    """One sender half and one receiver half, as a host paired them.

    The simulator sees both ends of ``src -> dst`` and keeps them
    together; a live node owns one end of each direction, so it pairs
    the sender half of ``me -> peer`` with the receiver half of
    ``peer -> me``."""

    sender: ChannelSender
    receiver: ChannelReceiver

    @property
    def retransmissions(self) -> int:
        return self.sender.retransmissions

    @property
    def duplicate_drops(self) -> int:
        return self.receiver.duplicate_drops


class ChannelHost:
    """What a substrate supplies to its channel halves, plus the state
    that spans them.

    A subclass provides the seam — :meth:`transmit`, :meth:`deliver`,
    :meth:`send_ack`, :meth:`jitter`, :meth:`count` — and decides how
    halves pair under :attr:`_channels`.  The halves call the seam
    directly on this one object; nothing here is per-packet state.
    """

    def __init__(self, scheduler: Scheduler,
                 policy: Optional[RetransmitPolicy] = None) -> None:
        self.scheduler = scheduler
        self.policy = policy if policy is not None else RetransmitPolicy()
        #: halves keyed by their sender's direction ``(src, dst)``
        self._channels: dict[tuple[int, int], Channel] = {}
        #: (src, dst) pairs whose sender currently suspects the receiver
        #: is down: transmission and timers are paused (sends still queue)
        self.paused_pairs: set[tuple[int, int]] = set()
        #: per-site count of channels with a non-empty backlog, and total
        #: backlogged packets per site — O(1) on the admission path
        self._bp_channels: dict[int, int] = {}
        self._backlog_total: dict[int, int] = {}
        #: lifetime tally per :meth:`count` event
        self.counts: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # the seam
    # ------------------------------------------------------------------
    def transmit(self, src: int, dst: int,
                 packet: DataPacket) -> Optional[float]:
        """One physical attempt.  A non-None return (the scheduled
        arrival) is the only way the sender learns the attempt was not
        dropped; a wire that cannot know returns None."""
        raise NotImplementedError

    def deliver(self, src: int, dst: int, payload: object) -> None:
        """Hand one in-order payload of ``src -> dst`` to the application."""
        raise NotImplementedError

    def send_ack(self, from_site: int, to_site: int, cumulative: int) -> None:
        """Tell ``to_site`` every seq <= ``cumulative`` arrived."""
        raise NotImplementedError

    def jitter(self, src: int, dst: int) -> float:
        """Draw in ``[0, policy.jitter_ms]`` added to one armed timer."""
        raise NotImplementedError

    def count(self, event: str, src: int = -1, dst: int = -1,
              size_bytes: float = 0.0, payload: object = None) -> None:
        """Account one channel event: ``retransmission`` (with its
        size and payload), ``spurious_retransmission``,
        ``duplicate_drop``, ``reorder_overflow``, ``breaker_trip``,
        ``breaker_close`` or ``overload_shed`` (``src`` is the shedding
        site).  The base keeps a tally per event in :attr:`counts`; a
        host with more places to write overrides this."""
        self.counts[event] += 1

    def multicast(self, src: int, dests: Sequence[int], message: object,
                  *, size_bytes: float = 0.0) -> None:
        """``Transport.multicast``: the subclass's ``send``, per destination."""
        for dst in dests:
            self.send(src, dst, message, size_bytes=size_bytes)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # suspicion pauses
    # ------------------------------------------------------------------
    def pause_pair(self, src: int, dst: int) -> None:
        """Suspend transmission on ``src -> dst`` (dst suspected down).

        The unacked queue stays durable at the sender; the timer is
        cancelled so backoff does not burn while the destination cannot
        answer.
        """
        if (src, dst) in self.paused_pairs:
            return
        self.paused_pairs.add((src, dst))
        ch = self._channels.get((src, dst))
        if ch is not None:
            ch.sender.park()

    def resume_pair(self, src: int, dst: int, *, flush: bool = True) -> None:
        """Clear a suspicion pause; optionally retransmit the backlog at
        the freshly-estimated timeout immediately (the rejoin path
        wants this)."""
        if (src, dst) not in self.paused_pairs:
            return
        self.paused_pairs.discard((src, dst))
        ch = self._channels.get((src, dst))
        if ch is not None:
            ch.sender.resume(flush=flush)

    # ------------------------------------------------------------------
    # backpressure & admission
    # ------------------------------------------------------------------
    def note_backlog_grow(self, site: int, became_nonempty: bool) -> None:
        self._backlog_total[site] = self._backlog_total.get(site, 0) + 1
        if became_nonempty:
            self._bp_channels[site] = self._bp_channels.get(site, 0) + 1

    def note_backlog_shrink(self, site: int, n: int,
                            became_empty: bool) -> None:
        remaining = self._backlog_total.get(site, 0) - n
        if remaining > 0:
            self._backlog_total[site] = remaining
        else:
            self._backlog_total.pop(site, None)
        if became_empty:
            count = self._bp_channels.get(site, 0) - 1
            if count > 0:
                self._bp_channels[site] = count
            else:
                self._bp_channels.pop(site, None)

    def overloaded(self, site: int) -> bool:
        """True while any of ``site``'s channels has a queued backlog."""
        return site in self._bp_channels

    def backlog_of(self, site: int) -> int:
        """Total backlogged packets across ``site``'s channels."""
        return self._backlog_total.get(site, 0)

    def check_overload_admission(self, site: int) -> None:
        """Shed a PUT with :class:`OverloadError` past the threshold."""
        threshold = self.policy.shed_backlog
        if threshold > 0:
            backlog = self._backlog_total.get(site, 0)
            if backlog >= threshold:
                self.count("overload_shed", site)
                raise OverloadError(site, backlog, threshold)

    # ------------------------------------------------------------------
    def unacked_count(self) -> int:
        """Packets somewhere between first send and ack (incl. backlog)."""
        return sum(ch.sender.pending for ch in self._channels.values())
