"""Crash-recovery pieces that need no simulator: disk, suspicion table, catch-up rule.

The crash model wipes a site's volatile protocol state — clocks, KS
logs, pending buffers, replica values — the instant it crashes.  What
survives is the site's *disk* (:class:`SiteDisk`): the last periodic
checkpoint (a :meth:`~repro.core.base.CausalProtocol.snapshot` blob)
plus a write-ahead log of every externally visible input the protocol
consumed since that checkpoint (messages received, writes and reads
issued locally).

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
skips every logging branch.

A failure detector's state is the :class:`FailureDetector` suspicion
table: per ordered pair ``(observer, subject)`` the last time the
observer heard from the subject and the pair's current timeout, which
backs off on every suspicion (capped) so a flaky channel stops
flapping.  A rejoining site catches up by anti-entropy: it sends each
live peer a :class:`SyncRequest`, each answers with a
:class:`SyncResponse` carrying a freshness digest (:func:`build_digest`),
and :func:`caught_up` decides when the ordinary machinery has brought
the site up to date.

Everything here takes time, the site set and channel state as arguments:
a driver (the simulator's :class:`~repro.sim.crash.CrashRecoveryManager`)
owns the ticks, sends every packet, pauses channels and counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional, Sequence

from ..memory.store import WriteId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .base import CausalProtocol

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL_MS",
    "WalRecord",
    "SiteDisk",
    "DetectorPolicy",
    "HeartbeatPacket",
    "FailureDetector",
    "SyncRequest",
    "SyncResponse",
    "build_digest",
    "caught_up",
]

#: applied when a crash plan is present but no interval was configured
DEFAULT_CHECKPOINT_INTERVAL_MS = 250.0
#: modelled wire size of one heartbeat
HEARTBEAT_SIZE_BYTES = 16.0
#: multiplicative backoff of a pair's suspicion timeout after each
#: suspicion
SUSPICION_BACKOFF = 2.0

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

    # -- logging (hot path; called only when a disk is installed) --
    def log_recv(self, src: int, message: object) -> None:
        self.wal.append(WalRecord("recv", src=src, message=message))

    def log_write(self, var: int, value: object) -> None:
        self.wal.append(WalRecord("write", var=var, value=value))

    def log_read(self, var: int) -> None:
        self.wal.append(WalRecord("read", var=var))

    # ------------------------------------------------------------------
    def install_checkpoint(self, state: dict, now: float) -> None:
        self.checkpoint = state
        self.checkpoint_time = now
        self.wal.clear()

    def __repr__(self) -> str:
        return (
            f"<SiteDisk site={self.site} checkpoint_time={self.checkpoint_time} "
            f"wal={len(self.wal)}>"
        )


@dataclass(frozen=True)
class DetectorPolicy:
    """Failure-detector parameters."""

    #: spacing of each live site's heartbeat multicast
    heartbeat_interval_ms: float = 75.0
    #: base silence before an observer suspects a subject; must span
    #: several heartbeat intervals or loss alone triggers suspicions
    timeout_ms: float = 300.0
    #: cap on the timeout backed off by :data:`SUSPICION_BACKOFF`
    max_timeout_ms: float = 2400.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.timeout_ms <= self.heartbeat_interval_ms:
            raise ValueError("timeout must exceed the heartbeat interval")
        if self.max_timeout_ms < self.timeout_ms:
            raise ValueError("max timeout must be >= base timeout")


@dataclass(frozen=True)
class HeartbeatPacket:
    """I-am-alive beacon from ``origin``."""

    origin: int


class FailureDetector:
    """Per-pair suspicion table: who suspects whom, and for how long.

    It never sends, pauses a channel or counts anywhere but in its own
    lifetime tallies: :meth:`expire` and :meth:`hear` return what
    changed, and the driver acts on it.
    """

    def __init__(self, policy: Optional[DetectorPolicy] = None) -> None:
        self.policy = policy if policy is not None else DetectorPolicy()
        self._last_heard: dict[tuple[int, int], float] = {}
        self._timeout: dict[tuple[int, int], float] = {}
        self.suspected: set[tuple[int, int]] = set()
        #: lifetime tallies (the metrics registry reads them at quiescence;
        #: false suspicions are the collector's)
        self.heartbeats_sent = 0
        self.suspicions = 0
        self.recoveries = 0

    def suspects(self, observer: int, subject: int) -> bool:
        return (observer, subject) in self.suspected

    def expire(self, now: float, members: Sequence[int],
               down: AbstractSet[int]) -> list[tuple[int, int]]:
        """Suspect every live observer's pair whose silence reached its
        timeout, backing that timeout off; returns the newly suspected
        pairs in (observer, subject) order."""
        newly: list[tuple[int, int]] = []
        for observer in members:
            if observer in down:
                continue
            for subject in members:
                if subject == observer or (observer, subject) in self.suspected:
                    continue
                pair = (observer, subject)
                if now - self._last_heard[pair] >= self._timeout[pair]:
                    self.suspected.add(pair)
                    self._timeout[pair] = min(
                        self._timeout[pair] * SUSPICION_BACKOFF,
                        self.policy.max_timeout_ms,
                    )
                    self.suspicions += 1
                    newly.append(pair)
        return newly

    def hear(self, observer: int, subject: int, now: float) -> bool:
        """Proof of life: ``observer`` just heard from ``subject``.
        True when this cleared a suspicion."""
        pair = (observer, subject)
        self._last_heard[pair] = now
        if pair not in self.suspected:
            return False
        self.suspected.discard(pair)
        self.recoveries += 1
        return True

    def note_crash(self, site: int) -> None:
        """The crashed site's *observer* state is volatile — its own
        suspicions die with it."""
        for pair in [p for p in sorted(self.suspected) if p[0] == site]:
            self.suspected.discard(pair)

    def note_recover(self, site: int, members: Iterable[int],
                     now: float) -> None:
        """Fresh grace period for the rejoined observer; peers watching
        it return to the base timeout (the backoff punished a crash, not
        a flaky channel)."""
        base = self.policy.timeout_ms
        for other in members:
            if other == site:
                continue
            self._last_heard[(site, other)] = now
            self._timeout[(site, other)] = base
            self._timeout[(other, site)] = base

    def add_member(self, site: int, members: Iterable[int],
                   now: float) -> None:
        """Seed pair state for a site and every other member: full grace
        period both ways."""
        base = self.policy.timeout_ms
        for other in members:
            if other == site:
                continue
            for pair in ((site, other), (other, site)):
                self._last_heard[pair] = now
                self._timeout[pair] = base

    def rebaseline(self, now: float) -> None:
        """Silence while the heartbeats were stopped was idleness, not
        death: move every ``last_heard`` up to ``now`` (never back)."""
        for pair in self._last_heard:
            self._last_heard[pair] = max(self._last_heard[pair], now)


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


def build_digest(
    responder: "CausalProtocol", target: int
) -> tuple[tuple[int, Optional[tuple[int, int]]], ...]:
    """``(var, (site, clock) | None)`` for every variable ``responder``
    and ``target`` both replicate, in ``target``'s variable order."""
    placement = responder.ctx.placement
    store = responder.ctx.store
    digest: list[tuple[int, Optional[tuple[int, int]]]] = []
    for var in placement.vars_at(target):
        if not placement.is_replicated_at(var, responder.site):
            continue
        wid = store.read(var).write_id
        digest.append((var, None if wid is None else (wid.site, wid.clock)))
    return tuple(digest)


def caught_up(proto: "CausalProtocol", responses: Mapping[int, SyncResponse],
              peers: Iterable[int], unacked: int) -> bool:
    """Has the rejoined ``proto`` caught up with its live ``peers``?"""
    # 1. nothing a live sender owes this site is still unacked (wire
    #    drops during downtime live in those queues — this is the real
    #    state-transfer barrier)
    if unacked:
        return False
    # 2. every live peer answered at least once, and every digest entry
    #    is known here (conservative per protocol)
    if any(p not in responses for p in peers):
        return False
    for resp in responses.values():
        for _var, widt in resp.digest:
            if widt is None:
                continue
            if proto.knows_write(WriteId(widt[0], widt[1])) is False:
                return False
    # 3. the rejoined site's own buffers have drained — its causal gates
    #    accepted everything that arrived
    return proto.pending_count == 0
