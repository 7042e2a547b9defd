"""The simulator's host for the reliable channel.

The channel algorithm itself — sequence numbers, cumulative acks,
adaptive retransmission, flow control, the circuit breaker, the paced
flush — is :mod:`repro.core.netpolicy`; the live service runs the same
state machine behind :mod:`repro.service.channel`.  This module is what
only the simulator has: the fault-injecting raw transmission path of
:class:`~repro.sim.network.Network` underneath (whose return value tells
the sender an attempt was not dropped, which makes spurious-retransmit
accounting exact), the arrival of every physical packet
(:meth:`ReliableTransport.arrive`, the kernel callback the network
posts: the down check, infra packet handlers, then the ack or data
straight to its channel half), timer jitter drawn from the injector's
seeded RNG, partition-heal scheduling and per-site recovery clocks, the
crash / rejoin hooks of :mod:`repro.sim.crash`, and the tracer hooks on channel events
(which the base host counts into the run's collector; the metrics
registry reads them there once, at quiescence).  A receiver half hands
an in-order payload to ``Network._deliver_app`` itself: the host's
``deliver`` is that bound method.

Because the simulator sees both ends of every channel, it keeps the
sender and the receiver half of ``src -> dst`` under one key.

The layer is only instantiated when a :class:`~repro.sim.faults.FaultInjector`
is attached (``Network.send`` / ``multicast`` then hand each message to
its channel's sender half); the default reliable path through them is
byte-for-byte the seed behavior (no sequence numbers, no acks, no
timers — zero overhead when chaos is off).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from ..core.netpolicy import (
    CHANNEL_EVENTS,
    Channel,
    ChannelHost,
    ChannelReceiver,
    ChannelSender,
    DataPacket,
    OverloadError,
    RetransmitPolicy,
)
from .faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..obs.metrics import MetricsRegistry
    from .network import Network

#: infra packet interceptor signature:
#: ``handler(src, dst, packet, dead) -> consumed``
PacketHandler = Callable[[int, int, object, bool], bool]

__all__ = [
    "RetransmitPolicy",
    "DataPacket",
    "AckPacket",
    "OverloadError",
    "ReliableTransport",
    "ACK_SIZE_BYTES",
]

#: modelled wire size of a cumulative ack (seq number + envelope)
ACK_SIZE_BYTES = 20.0
#: the collector tally ``send_ack`` books (see ``CHANNEL_EVENTS``)
_ACK_COUNTER = CHANNEL_EVENTS["ack"].counter


class AckPacket(NamedTuple):
    """Cumulative ack: every seq <= ``cumulative`` has been received."""

    cumulative: int


class ReliableTransport(ChannelHost):
    """All reliable channels of one network, plus heal/recovery tracking."""

    def __init__(
        self,
        network: "Network",
        injector: FaultInjector,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        super().__init__(network.sim, network.collector, policy)
        self.net = network
        self.sim = network.sim
        # ``deliver`` is the network's own hand-up: an in-order payload
        # goes from the receiver half to the application in one call
        self.deliver = network._deliver_app  # type: ignore[method-assign]
        self.injector = injector
        #: site -> heal time of the partition it is recovering from
        self._recovering: dict[int, float] = {}
        #: infra packet interceptors (heartbeats, anti-entropy sync):
        #: ``handler(src, dst, packet, dead) -> consumed``; tried before
        #: the ack/data machinery on every physical arrival
        self.packet_handlers: list[PacketHandler] = []
        for p in injector.plan.partitions:
            if math.isfinite(p.heal_ms):
                self.sim.schedule_at(
                    max(self.sim.now, p.heal_ms),
                    lambda p=p: self.on_heal(p.heal_ms, p.group),
                )

    # ------------------------------------------------------------------
    def channel(self, src: int, dst: int) -> Channel:
        key = (src, dst)
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = Channel(
                ChannelSender(self, src, dst), ChannelReceiver(self, src, dst))
        return ch

    def register_packet_handler(self, handler: "PacketHandler") -> None:
        """Add an infra packet interceptor (heartbeat / sync layers)."""
        self.packet_handlers.append(handler)

    def arrive(self, src: int, dst: int, packet: object) -> None:
        """Terminate one physical packet at the destination NIC: the
        kernel callback every :meth:`Network._transmit_raw` posts.

        A down destination drops the packet at the wire — the sender's
        channel keeps it durable and retransmits after the site rejoins
        — and only the infra handlers hear of it (``dead=True``), for
        their bookkeeping.  Otherwise the handlers may consume it, and
        what is left is an ack for the sender half of the reverse
        direction or data for the receiver half of this one.
        """
        net = self.net
        handlers = self.packet_handlers
        if dst in net.down:
            self.collector.record_dead_site_drop()
            for handler in handlers:
                if handler(src, dst, packet, True):
                    break
            return
        if handlers:
            for handler in handlers:
                if handler(src, dst, packet, False):
                    return
        # the class test, not isinstance: every packet pays it
        if packet.__class__ is AckPacket:
            cumulative: int = packet.cumulative  # type: ignore[attr-defined]
            # an ack for channel (a -> b) travels physically b -> a
            ch = self._channels.get((dst, src))
            if (ch is not None and ch.sender.on_ack(cumulative)
                    and self._recovering):
                self._close_recovery(src)
            return
        data: DataPacket = packet  # type: ignore[assignment]
        ch = self._channels.get((src, dst)) or self.channel(src, dst)
        ch.receiver.on_data(data.seq, data.payload)

    # ------------------------------------------------------------------
    # the channel seam (see repro.core.netpolicy.ChannelHost)
    # ------------------------------------------------------------------
    def transmit(self, src: int, dst: int,
                 packet: DataPacket) -> Optional[float]:
        return self.net._transmit_raw(src, dst, packet, packet.size_bytes)

    def send_ack(self, from_site: int, to_site: int, cumulative: int) -> None:
        # an ack has no tracer hook: its collector row is booked here,
        # not through count
        self.collector.record_transport(_ACK_COUNTER, from_site,
                                        ACK_SIZE_BYTES)
        self.net._transmit_raw(from_site, to_site, AckPacket(cumulative),
                               ACK_SIZE_BYTES)

    def jitter(self, src: int, dst: int) -> float:
        # uniform(0, jitter_ms) off the injector's one stream of doubles
        jitter_ms = self.policy.jitter_ms
        return jitter_ms * self.injector.next_double() if jitter_ms else 0.0

    def count(self, event: str, src: int = -1, dst: int = -1,
              size_bytes: float = 0.0, payload: object = None) -> None:
        super().count(event, src, dst, size_bytes)
        tracer = self.net.tracer
        if tracer is not None and event == "retransmission":
            tracer.msg_retransmit(src, dst, payload, ts=self.sim.now)

    # ------------------------------------------------------------------
    # heal handling & recovery-latency tracking
    # ------------------------------------------------------------------
    def _close_recovery(self, site: int) -> None:
        """A channel toward ``site`` just drained: close out the site's
        recovery clock if nothing is queued toward it anywhere."""
        heal_time = self._recovering.get(site)
        if heal_time is None:
            return
        if any(ch.sender.pending for (_, d), ch in self._channels.items()
               if d == site):
            return
        del self._recovering[site]
        self.collector.record_recovery(site, self.sim.now - heal_time)

    def on_heal(self, heal_time: float, group: frozenset[int]) -> None:
        """A partition isolating ``group`` healed: retransmit eagerly
        (paced) and start the per-site recovery clock for every site
        with a backlog."""
        for (src, dst), ch in self._channels.items():
            if ((src in group) != (dst in group)) and ch.sender.pending:
                self._recovering.setdefault(dst, heal_time)
                ch.sender.recover()

    # ------------------------------------------------------------------
    # crash-recovery hooks (see repro.sim.crash)
    # ------------------------------------------------------------------
    def on_site_crash(self, site: int) -> None:
        """Volatile transport state of ``site`` dies with it.

        Its sender timers, RTT estimators, breaker state, and suspicion
        bookkeeping vanish; its receive reassembly buffers are wiped
        (everything in them was still unacked at the senders, so nothing
        acked is lost — the ack-implies-durable invariant).
        ``next_seq``/``next_expected`` and the unacked/backlog queues
        survive: they mirror durable state.
        """
        # simcheck: ignore[SIM003] -- set-to-set filter; construction order is never observable
        self.paused_pairs = {p for p in self.paused_pairs if p[0] != site}
        for (src, dst), ch in self._channels.items():
            if src == site:
                ch.sender.on_crash()
            if dst == site:
                ch.receiver.on_crash()
                ch.sender.on_peer_crash()

    def on_site_recover(self, site: int) -> None:
        """Rejoin: the revived site flushes its own durable backlog."""
        for (src, _), ch in self._channels.items():
            if src == site:
                ch.sender.recover()

    def unacked_to(self, site: int, *, from_live_only: bool = False,
                   down: "Optional[set[int]]" = None) -> int:
        """Packets queued durably toward ``site`` — unacked in flight
        plus windowed-out backlog (optionally only from senders that are
        currently up — a dead sender's frozen backlog cannot drain until
        it rejoins)."""
        total = 0
        for (src, dst), ch in self._channels.items():
            if dst != site:
                continue
            if from_live_only and down and src in down:
                continue
            total += ch.sender.pending
        return total

    def unacked_between_live(self, down: "set[int]") -> int:
        """Queued packets on channels whose both endpoints are up."""
        return sum(
            ch.sender.pending for (src, dst), ch in self._channels.items()
            if src not in down and dst not in down
        )

    def blocked_channels(self, now: float) -> list[tuple[int, int]]:
        """Channels with queued packets severed by a never-healing
        partition — traffic that can never drain without a ``heal()``."""
        blocked = []
        for (src, dst), ch in self._channels.items():
            if ch.sender.pending and self.injector.severed(src, dst, now) and any(
                (src in g) != (dst in g)
                for g in self.injector.unhealed_partitions(now)
            ):
                blocked.append((src, dst))
        return blocked

    # ------------------------------------------------------------------
    # end-of-run metrics export
    # ------------------------------------------------------------------
    def sample_channel_metrics(self, registry: "MetricsRegistry") -> None:
        """Export the channel-event totals and per-channel transport
        state as labeled gauges/counters.

        Sampled once at quiescence from the collector and the channels
        themselves: the registry keeps no copy of its own.
        """
        for counter, metric, help_text in CHANNEL_EVENTS.values():
            value = self.collector.transport_count(counter)
            if value:
                registry.inc(metric, value, help_text=help_text)
        for src, dst in sorted(self._channels):
            ch = self._channels[(src, dst)]
            tx, rx = ch.sender, ch.receiver
            for name, value, help_text in (
                ("net_channel_rto_ms", tx.rto,
                 "retransmission timeout at quiescence"),
                ("net_channel_srtt_ms",
                 tx.srtt if tx.srtt is not None else 0.0,
                 "smoothed RTT estimate (0 = no samples)"),
                ("net_channel_unacked", len(tx.unacked),
                 "unacked packets in flight at quiescence"),
                ("net_channel_unacked_peak", tx.unacked_peak,
                 "peak in-flight window occupancy over the run"),
                ("net_channel_backlog", len(tx.backlog),
                 "windowed-out backlog depth at quiescence"),
                ("net_channel_reorder", len(rx.reorder),
                 "reassembly-buffer occupancy at quiescence"),
                ("net_channel_reorder_peak", rx.reorder_peak,
                 "peak reassembly-buffer occupancy over the run"),
            ):
                registry.set_gauge(name, value, help_text=help_text,
                                   src=src, dst=dst)
            if rx.duplicate_drops:
                registry.inc(
                    "net_channel_duplicate_drops_total", rx.duplicate_drops,
                    help_text="duplicates suppressed by this receiver",
                    src=src, dst=dst)
            if tx.retransmissions:
                registry.inc(
                    "net_channel_retransmissions_total", tx.retransmissions,
                    help_text="retransmissions sent on this channel",
                    src=src, dst=dst)
