"""Substrate ports: the narrow seams between the protocols and their host.

The four protocol cores are pure state machines over their inputs — PR 9
machine-checks that (`repro check --effects --layers` certifies
``repro.core`` free of wall-clock / RNG / file / network / simulator
effects).  Everything stateful they touch arrives through
:class:`~repro.core.base.ProtocolContext` injection, and this module
names the *shape* of each injected seam as a PEP 544 structural
protocol:

:class:`Clock`
    timestamps (``ctx.clock.now``) — simulated milliseconds under the
    discrete-event kernel, wall milliseconds under the live service;
:class:`Transport`
    message egress — one message to one site, or one shared message to
    many — plus the overload/backpressure signals the cores consult
    before admitting work;
:class:`TimerService` / :class:`TimerHandle`
    delayed callbacks (retransmission timers, heartbeats, checkpoint
    ticks).  The cores themselves never arm timers — the reliable
    channel and the failure detector do — but the seam is declared here
    because both substrates must provide it;
:class:`Scheduler`
    the common ``Clock + TimerService`` bundle infrastructure components
    (reliable channels, failure detector, durability layer) accept;
:class:`Durability`
    the write-ahead log the cores journal operations into before
    processing them (``None`` disables durability entirely).

Two implementations exist:

* the discrete-event substrate — :class:`~repro.sim.engine.Simulator`
  satisfies :class:`Clock`, :class:`TimerService`, and
  :class:`Scheduler`; :class:`~repro.sim.network.Network` satisfies
  :class:`Transport`; :class:`~repro.sim.checkpoint.SiteDisk` satisfies
  :class:`Durability`;
* the live service substrate (:mod:`repro.service`) — a wall
  clock/asyncio timer runtime, a real-socket transport, and the same
  protocol objects serving real traffic.

The kernel is also the live stack's deterministic test scheduler: the
in-process loopback cluster (:mod:`repro.loopback`) runs the service
transports and nodes with a :class:`~repro.sim.engine.Simulator` as
their :class:`Scheduler`, so there is one scheduler implementation
besides the asyncio one.

The protocols are ``runtime_checkable`` so conformance is asserted in
tests, but the real contract is structural: a substrate never inherits
from these classes, it simply has the right attributes.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

__all__ = [
    "Clock",
    "TimerHandle",
    "TimerService",
    "Scheduler",
    "Transport",
    "Durability",
    "NullTransport",
]


@runtime_checkable
class Clock(Protocol):
    """Timestamps in milliseconds, monotone within one run.

    The unit is shared across substrates (the paper's latency models are
    calibrated in ms); the epoch is substrate-defined — simulation start
    for the kernel, node start for the live service.
    """

    @property
    def now(self) -> float:
        """Current time in milliseconds."""
        ...


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable pending timer returned by :meth:`TimerService.schedule`."""

    def cancel(self) -> None:
        """Best-effort cancellation; cancelling a fired timer is a no-op."""
        ...


@runtime_checkable
class TimerService(Protocol):
    """Delayed callbacks, in the owning :class:`Clock`'s time base."""

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` ``delay`` ms from now; returns a cancellable
        handle."""
        ...


@runtime_checkable
class Scheduler(Clock, TimerService, Protocol):
    """The ``Clock + TimerService`` bundle most infrastructure needs.

    :class:`~repro.sim.engine.Simulator` is one implementation (events
    on the kernel heap); the service runtime's asyncio wrapper is the
    other (``loop.call_later`` under a wall clock).
    """


@runtime_checkable
class Transport(Protocol):
    """Message egress plus the overload signals the cores consult.

    ``send`` must be reliable and FIFO per directed channel — the
    activation predicates assume the paper's communication substrate
    (Section IV): no loss, no duplication, no reordering within a
    channel.  How that guarantee is manufactured (kernel events, an
    ack/retransmit layer over a lossy wire, a TCP socket) is the
    implementation's business.
    """

    def send(
        self, src: int, dst: int, message: object, *, size_bytes: float = 0.0
    ) -> Optional[float]:
        """Transmit ``message`` on the ``src -> dst`` channel.

        Returns the scheduled/estimated delivery time when the substrate
        knows it, ``None`` otherwise (queued, retransmitting, ...).
        """
        ...

    def multicast(self, src: int, dests: Sequence[int], message: object,
                  *, size_bytes: float = 0.0) -> None:
        """Transmit the one shared ``message`` (never copied) to each of
        ``dests``: observably ``send(src, dst, message, size_bytes=...)``
        per ``dst`` in order — same deliveries at the same times, same
        error after the same sends.  Looping ``send`` is a full
        implementation; hoisting per-call work out of the loop is allowed.
        """
        ...

    def overloaded(self, site: int) -> bool:
        """True while ``site``'s outbound channels signal backpressure."""
        ...

    def check_overload_admission(self, site: int) -> None:
        """Raise :class:`~repro.core.netpolicy.OverloadError` once
        ``site``'s outbound backlog exceeds the shed threshold."""
        ...


@runtime_checkable
class Durability(Protocol):
    """Write-ahead journal the protocol feeds before processing.

    The contract (PR 3): an operation/receipt is logged *before* its
    effects happen, and the transport acknowledges a message only after
    ``on_message`` returns — so an acked message is always durable.
    """

    def log_write(self, var: int, value: object) -> None: ...

    def log_read(self, var: int) -> None: ...

    def log_recv(self, src: int, message: object) -> None: ...


class NullTransport:
    """A :class:`Transport` that drops everything: the canonical sink.

    Used wherever sends must be swallowed rather than performed — WAL
    replay re-executes protocol code whose original sends already
    happened (they live on durably in the reliable-channel queues), and
    tests drive protocol instances with no wiring at all.  Never
    overloaded, by construction.
    """

    __slots__ = ()

    def send(
        self, src: int, dst: int, message: object, *, size_bytes: float = 0.0
    ) -> Optional[float]:
        return None

    def multicast(self, src: int, dests: Sequence[int], message: object,
                  *, size_bytes: float = 0.0) -> None:
        return None

    def overloaded(self, site: int) -> bool:
        return False

    def check_overload_admission(self, site: int) -> None:
        return None
