"""Clock and timer implementations for the live substrate.

:class:`AsyncioScheduler` satisfies the :class:`~repro.core.ports.Scheduler`
port over a running asyncio loop: ``now`` is the loop's monotonic time
rebased to node start and scaled to milliseconds (the unit every port
consumer — protocols, channels, history records — already speaks), and
``schedule`` wraps ``loop.call_later``.  This module is the sanctioned
home of the service layer's WALL_CLOCK effect; the static effect
analyzer recognizes ``loop.time``/``loop.call_later`` as wall-clock
leaves, so a stray import below this layer trips the purity gate.

Its deterministic twin is the simulation kernel itself:
:class:`~repro.sim.engine.Simulator` satisfies the same port, so the
in-process loopback cluster (:mod:`repro.loopback`) and the channel
tests run this layer's channel and node logic on it, without real time
or sockets.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

__all__ = ["AsyncioScheduler", "AsyncioTimer"]


class AsyncioTimer:
    """:class:`~repro.core.ports.TimerHandle` over ``loop.call_later``."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class AsyncioScheduler:
    """Wall :class:`~repro.core.ports.Clock` + ``TimerService`` over asyncio.

    The epoch is construction time, so ``now`` starts near 0 like the
    simulator's — timestamps in live histories are "ms since node start".
    """

    __slots__ = ("_loop", "_origin")

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()

    @property
    def now(self) -> float:
        """Milliseconds since node start (wall time)."""
        return (self._loop.time() - self._origin) * 1000.0

    def schedule(self, delay: float, callback: Callable[[], None]) -> AsyncioTimer:
        """Run ``callback`` ``delay`` ms from now on the loop."""
        return AsyncioTimer(
            self._loop.call_later(max(delay, 0.0) / 1000.0, callback)
        )

