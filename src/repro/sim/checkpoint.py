"""Durable-state layer for crash–recovery: checkpoints + write-ahead log.

The crash model (see :mod:`repro.sim.crash`) wipes a site's volatile
protocol state — clocks, KS logs, pending buffers, replica values — the
instant it crashes.  What survives is the site's *disk*: the last
periodic checkpoint (a :meth:`~repro.core.base.CausalProtocol.snapshot`
blob) plus a write-ahead log of every externally visible input the
protocol consumed since that checkpoint (messages received, writes and
reads issued locally).

Recovery is deterministic re-execution: restore the checkpoint, then
replay the WAL records in order through the normal protocol code paths
(with sends and metrics suppressed — the originals already happened and
the outbound reliable-channel queues are themselves durable).  Because
every protocol here is a deterministic state machine over its inputs,
replay reconstructs the exact pre-crash logical state.

The durability invariant that makes this safe is *ack-implies-durable*:
the reliable transport delivers a packet to the application (which
WAL-logs it synchronously) **before** sending the cumulative ack, so a
sender never retires a message the receiver could still forget.

Zero-overhead contract: a protocol with ``_wal is None`` (the default)
skips every logging branch — the seed path is byte-identical, mirroring
the ``tracer=None`` and ``fault_plan=None`` contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.base import CausalProtocol
    from ..metrics.collector import MetricsCollector
    from ..obs.metrics import MetricsRegistry
    from .engine import ScheduledEvent, Simulator

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL_MS",
    "WalRecord",
    "SiteDisk",
    "DurabilityLayer",
]

#: applied when a crash plan is present but no interval was configured
DEFAULT_CHECKPOINT_INTERVAL_MS = 250.0


@dataclass(frozen=True)
class WalRecord:
    """One durable input to the protocol state machine.

    ``kind`` is ``"recv"`` (message delivered from ``src``), ``"write"``
    (local write of ``value`` to ``var``) or ``"read"`` (local read of
    ``var`` — logged because reads merge causal metadata on this family
    of protocols and bump the fetch-request counter).
    """

    kind: str
    src: int = -1
    var: int = -1
    value: object = None
    message: object = None


class SiteDisk:
    """The durable storage of one site: checkpoint blob + WAL tail.

    Installed as ``protocol._wal``; the protocol calls the ``log_*``
    methods from its input paths.  ``install_checkpoint`` atomically
    replaces the blob and truncates the log (a checkpoint subsumes every
    input replayed into it).
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self.checkpoint: Optional[dict] = None
        self.checkpoint_time: float = 0.0
        self.wal: list[WalRecord] = []
        # lifetime counters (survive checkpoint truncation)
        self.checkpoints_taken = 0
        self.wal_appends = 0

    # -- logging (hot path; called only when a durability layer is on) --
    def log_recv(self, src: int, message: object) -> None:
        self.wal.append(WalRecord("recv", src=src, message=message))
        self.wal_appends += 1

    def log_write(self, var: int, value: object) -> None:
        self.wal.append(WalRecord("write", var=var, value=value))
        self.wal_appends += 1

    def log_read(self, var: int) -> None:
        self.wal.append(WalRecord("read", var=var))
        self.wal_appends += 1

    # ------------------------------------------------------------------
    def install_checkpoint(self, state: dict, now: float) -> None:
        self.checkpoint = state
        self.checkpoint_time = now
        self.wal.clear()
        self.checkpoints_taken += 1

    def __repr__(self) -> str:
        return (
            f"<SiteDisk site={self.site} checkpoints={self.checkpoints_taken} "
            f"wal={len(self.wal)}>"
        )


class DurabilityLayer:
    """Periodic checkpointing of every live site's protocol state.

    One global tick checkpoints all live sites each ``interval_ms`` —
    checkpoints cost nothing in simulated time (the paper's model prices
    only network traffic), so synchronising them keeps the event count
    low and the schedule deterministic.

    The tick is self-perpetuating, which would keep the simulator alive
    forever; it therefore consults ``quiescent()`` (supplied by the
    crash-recovery manager) and stops rescheduling once the run has
    nothing left to do.  ``wake()`` restarts it — used by the
    interactive cluster when new operations arrive after a lull.
    """

    def __init__(
        self,
        sim: "Simulator",
        protocols: "list[CausalProtocol]",
        *,
        interval_ms: float = DEFAULT_CHECKPOINT_INTERVAL_MS,
        collector: "Optional[MetricsCollector]" = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.sim = sim
        self.protocols = protocols
        self.interval_ms = float(interval_ms)
        self.collector = collector
        self.disks: list[SiteDisk] = []
        #: ground truth for "is this site down right now"; wired by the
        #: crash-recovery manager (always-up when running standalone)
        self.is_down: Callable[[int], bool] = lambda site: False
        #: stop predicate for the periodic tick; wired by the manager
        self.quiescent: Callable[[], bool] = lambda: False
        self._tick_event: "Optional[ScheduledEvent]" = None
        self._stopped = False
        self._attached = False
        #: metrics registry for the WAL-tail histogram (wired by the
        #: runner; None is the zero-overhead path); the checkpoint count
        #: is the collector's
        self.registry: "Optional[MetricsRegistry]" = None

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install a disk on every protocol and take checkpoint zero.

        The initial checkpoint guarantees recovery is possible even if a
        site crashes before the first periodic tick fires.
        """
        if self._attached:
            raise RuntimeError("durability layer already attached")
        self._attached = True
        for proto in self.protocols:
            disk = SiteDisk(proto.site)
            disk.install_checkpoint(proto.snapshot(), self.sim.now)
            proto._wal = disk
            self.disks.append(disk)
        self._tick_event = self.sim.schedule(
            self.interval_ms, self._tick, label="checkpoint.tick"
        )

    def disk(self, site: int) -> SiteDisk:
        return self.disks[site]

    def add_site(self, proto: "CausalProtocol", state: dict,
                 now: float) -> SiteDisk:
        """Elastic membership: give a joiner a disk seeded with ``state``.

        ``state`` (the donor fork, or a fresh snapshot under partial
        replication) becomes checkpoint zero, so the joiner is crash-
        recoverable from the instant it is announced.  Disks stay
        indexed by site id because joiner ids are allocated in order.
        """
        if not self._attached:
            raise RuntimeError("durability layer not attached")
        disk = SiteDisk(proto.site)
        disk.install_checkpoint(state, now)
        proto._wal = disk
        if proto not in self.protocols:
            self.protocols.append(proto)
        self.disks.append(disk)
        return disk

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._tick_event = None
        quiescent = self.quiescent()
        now = self.sim.now
        for proto, disk in zip(self.protocols, self.disks):
            if self.is_down(proto.site):
                continue  # a crashed site cannot write its own disk
            if proto._departed_status is not None:
                continue  # a departed site's disk is frozen history
            if quiescent and not disk.wal:
                continue  # nothing new since the last checkpoint
            wal_len = len(disk.wal)
            disk.install_checkpoint(proto.snapshot(), now)
            if self.collector is not None:
                self.collector.record_checkpoint()
            if self.registry is not None:
                self.registry.observe(
                    "wal_tail_records", wal_len,
                    help_text="WAL records truncated by each checkpoint")
        if quiescent:
            # one final checkpoint above truncated every WAL, so a later
            # crash (interactive drivers) replays only post-wake inputs
            self._stopped = True
            return
        self._tick_event = self.sim.schedule(
            self.interval_ms, self._tick, label="checkpoint.tick"
        )

    def wake(self) -> None:
        """Restart the periodic tick after a quiescent stop."""
        if not self._attached or not self._stopped or self._tick_event is not None:
            return
        self._stopped = False
        self._tick_event = self.sim.schedule(
            self.interval_ms, self._tick, label="checkpoint.tick"
        )

    @property
    def checkpoints_taken(self) -> int:
        return sum(d.checkpoints_taken for d in self.disks)
