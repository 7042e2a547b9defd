"""The live service's host for the reliable channel.

TCP already gives FIFO bytes *per connection*, but connections die: a
peer restart or transient disconnect silently drops everything buffered
in the kernel, and a reconnect may replay frames the receiver already
processed.  The channel state machine in :mod:`repro.core.netpolicy` —
the same one the simulator runs under injected faults — restores the
guarantees the protocol cores assume (no loss, no duplication, no
reordering within a channel) *across* connections.

This module is what only the live substrate has: the adapter between
channel packets and wire frames, validation of frames arriving from
untrusted peers, and the :class:`~repro.core.ports.Transport` port.  A
node owns one end of each direction, so it keeps the sender half of
``me -> peer`` and the receiver half of ``peer -> me`` under one key.
Timers come from the injected :class:`~repro.core.ports.Scheduler`, so
the identical logic runs under asyncio (live node) or a
:class:`~repro.service.runtime.StepClock` (tests).
"""

from __future__ import annotations

from random import Random
from typing import Callable, Optional

from ..core.netpolicy import (
    Channel,
    ChannelHost,
    ChannelReceiver,
    ChannelSender,
    DataPacket,
    RetransmitPolicy,
)
from ..core.ports import Scheduler
from .codec import (
    WIRE_VERSION,
    CodecError,
    ack_frame,
    data_frame,
    encode_message,
    message_from_wire,
)

__all__ = ["ServiceTransport"]

#: egress carries one frame's canonical bytes (the data / ack / hello
#: schemas are repro.service.codec's)
SendFrame = Callable[[int, bytes], None]
Deliver = Callable[[int, object], None]


class ServiceTransport(ChannelHost):
    """The :class:`~repro.core.ports.Transport` port over framed links.

    ``send_frame(dst, frame)`` is the injected raw egress — the asyncio
    node writes the frame's bytes, length-prefixed, to the peer's socket
    (and silently drops while disconnected; retransmission covers the
    gap), the loopback substrate appends them to an in-process queue.
    It cannot tell whether a frame arrived, so :meth:`transmit` never
    reports an attempt as undropped and ``spurious_retransmission``
    stays a simulator-only count.

    A message is priced once: :meth:`send` encodes it to canonical bytes,
    those bytes are the channel packet's payload, and every transmission
    of the packet splices the same bytes into a frame.
    """

    def __init__(
        self,
        site: int,
        n_sites: int,
        scheduler: Scheduler,
        send_frame: SendFrame,
        deliver: Deliver,
        *,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        super().__init__(scheduler, policy)
        self.site = site
        self.n_sites = n_sites
        self.send_frame = send_frame
        self._deliver = deliver
        # per-channel deterministic jitter streams (seeded by identity):
        # desynchronize timers without an unseeded RNG effect
        self._jitter: dict[int, Random] = {}
        self.messages_sent = 0
        #: peer frames dropped by :meth:`on_frame`'s validation (the
        #: node adds the payloads it could not parse at all)
        self.malformed_frames = 0
        #: inbound links closed for not opening with this format's hello
        self.links_refused = 0

    def channel(self, dst: int) -> Channel:
        key = (self.site, dst)
        ch = self._channels.get(key)
        if ch is None:
            self._jitter[dst] = Random(((self.site + 1) << 20) ^ (dst + 1))
            ch = self._channels[key] = Channel(
                ChannelSender(self, self.site, dst),
                ChannelReceiver(self, dst, self.site))
        return ch

    # ------------------------------------------------------------------
    # Transport port (overloaded / check_overload_admission: ChannelHost)
    # ------------------------------------------------------------------
    def send(
        self, src: int, dst: int, message: object, *, size_bytes: float = 0.0
    ) -> Optional[float]:
        if src != self.site:
            raise ValueError(
                f"transport of site {self.site} asked to send as {src}"
            )
        self.messages_sent += 1
        # the one JSON pass this message gets; retransmissions reuse it
        ch = self._channels.get((src, dst)) or self.channel(dst)
        ch.sender.send(encode_message(message), size_bytes)
        return None  # delivery time is the wire's business

    # ------------------------------------------------------------------
    # the channel seam (count: the ChannelHost tally)
    # ------------------------------------------------------------------
    def transmit(self, src: int, dst: int,
                 packet: DataPacket) -> Optional[float]:
        self.send_frame(dst, data_frame(src, packet.seq, packet.payload))
        return None

    def deliver(self, src: int, dst: int, payload: object) -> None:
        self._deliver(src, payload)

    def send_ack(self, from_site: int, to_site: int, cumulative: int) -> None:
        self.send_frame(to_site, ack_frame(from_site, cumulative))

    def jitter(self, src: int, dst: int) -> float:
        return self._jitter[dst].uniform(0.0, self.policy.jitter_ms)

    # ------------------------------------------------------------------
    # frame ingress and link events (wired by the node)
    # ------------------------------------------------------------------
    def _peer_of(self, frame: dict) -> Optional[int]:
        """The other member a frame says it is from, if it says so.
        (``type(x) is int``, not ``isinstance``: JSON ``true`` is a
        ``bool``, and a ``bool`` is not a site or a sequence number.)"""
        src = frame.get("src")
        if type(src) is int and 0 <= src < self.n_sites and src != self.site:
            return src
        return None

    def accept_link(self, first: object) -> bool:
        """Whether an inbound link may stay open, given its first frame:
        only behind the hello of another member speaking
        :data:`~repro.service.codec.WIRE_VERSION`.  The node asks once
        per link and closes a refused one, so no frame of another format
        ever reaches :meth:`on_frame` and no frame is version-checked."""
        if type(first) is dict:
            src = self._peer_of(first)
            if src is not None and first == {"k": "hello", "src": src,
                                             "v": WIRE_VERSION}:
                return True
        self.links_refused += 1
        return False

    def on_frame(self, frame: object) -> None:
        """Accept one parsed frame from a peer.  Peers are untrusted: a
        frame that is not a well-formed data or ack frame from another
        member — its message decodable, every field of the declared
        shape, every site id it carries a member's — is dropped and
        counted before it can touch channel state."""
        if type(frame) is dict:
            src = self._peer_of(frame)
            kind = frame.get("k")
            if src is None:
                pass
            elif kind == "data":
                seq = frame.get("seq")
                wire = frame.get("m")
                if type(seq) is int and seq >= 0 and type(wire) is dict:
                    try:
                        message = message_from_wire(wire, self.n_sites)
                    except CodecError:
                        pass
                    else:
                        ch = (self._channels.get((self.site, src))
                              or self.channel(src))
                        ch.receiver.on_data(seq, message)
                        return
            elif kind == "ack":
                cum = frame.get("cum")
                if type(cum) is int and cum >= -1:
                    ch = self._channels.get((self.site, src))
                    if ch is not None:
                        ch.sender.on_ack(cum)
                    return
        self.malformed_frames += 1

    def on_link_up(self, dst: int) -> None:
        """The link to ``dst`` was (re-)established: flush (paced) what
        is unacked now instead of waiting out a backed-off timer."""
        ch = self._channels.get((self.site, dst))
        if ch is not None:
            ch.sender.recover()

    def close(self) -> None:
        for ch in self._channels.values():
            ch.sender.park()
