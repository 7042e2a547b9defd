"""Elastic membership: epoch-numbered views with join/leave/evict.

The paper's testbed fixes the site set for a run's lifetime.  This module
adds the membership substrate the ROADMAP's "sharding + elastic
membership" item calls for: a :class:`ViewManager` that advances the
cluster through numbered **view epochs**, each epoch differing from its
predecessor by exactly one site joining, leaving, or being evicted.

Design (see docs/membership.md):

* **Stable site ids.**  A joining site gets the next never-used id, so
  ids are append-only and every index-keyed structure (protocol lists,
  per-site disks, matrix-clock rows) stays position-aligned forever.
  Departed ids are never reused; *capacity* (the id space) only grows.
* **Fence-and-drain view changes.**  A view change first *fences* the
  cluster: application processes are held, and the manager waits until
  every in-flight protocol message has been delivered and every buffered
  update applied.  Only then is the membership mutated, metadata
  resized, and the new epoch announced.  Draining first means no
  protocol message ever crosses an epoch boundary, which keeps the
  per-protocol resize logic trivial (pad with zeros) and provably safe.
* **Join = PR-3 bootstrap pipeline.**  A joiner is brought up through
  the same checkpoint-restore -> WAL-replay path a crash-recovering
  site uses: under full replication the lowest-id live member acts as
  donor (its drained snapshot is installed as the joiner's
  checkpoint-zero), under partial replication the joiner starts with an
  empty replica set and a trivially-complete checkpoint.
* **Leave = drain + replica handoff.**  Variables solely replicated at
  the leaver are handed to its clockwise live successor (value, write
  id, and last-write metadata), so no data is lost on a planned leave.
* **Evict = failure-detector escalation.**  A persistently-suspected
  crash-stopped site is removed from the view instead of being
  retransmitted at forever.  Solely-held variables whose only replica
  was the victim come back as |bot| and are counted in
  ``lost_variables`` — graceful degradation, not silent loss.

Operations addressed at a departed site fail fast with
:class:`DepartedSiteError`; ids that never existed raise
:class:`UnknownSiteError` (a ``ValueError`` subclass, so existing
out-of-range call sites keep their exception contract).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.base import CausalProtocol
    from .crash import CrashRecoveryManager
    from .engine import Simulator
    from .network import Network
    from .process import Site

__all__ = [
    "MembershipError",
    "UnknownSiteError",
    "DepartedSiteError",
    "View",
    "ViewManager",
]


# The exception vocabulary moved to repro.core.errors (the protocol
# layer raises DepartedSiteError itself); re-exported here so existing
# `from repro.sim.membership import ...` call sites keep working.
from ..core.errors import (  # noqa: E402  -- re-export after __all__
    DepartedSiteError,
    MembershipError,
    UnknownSiteError,
)


#: how often a fence re-tests its drain predicate
FENCE_POLL_MS = 5.0
#: how long a fence may wait for the drain predicate (a fence that
#: cannot drain — e.g. an unhealable partition — is a configuration
#: error, not something to wait out forever)
MAX_FENCE_MS = 120_000.0
#: spacing of retries of a leave whose site is down but recovering
CHANGE_RETRY_MS = 50.0


@dataclass(frozen=True)
class View:
    """One membership epoch: which site ids are members right now.

    ``capacity`` is the size of the id space (max issued id + 1); it
    only grows.  ``members`` is the sorted tuple of live-or-crashed ids
    that belong to the current epoch (a crashed-but-recoverable site
    remains a member; only leave/evict remove membership).
    """

    epoch: int
    members: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __contains__(self, site: int) -> bool:
        return site in self.members


@dataclass
class _PendingChange:
    kind: str  # "join" | "leave" | "evict"
    site: Optional[int] = None
    first_attempt_ms: Optional[float] = None


@dataclass
class MembershipStats:
    """Lifetime counters for one :class:`ViewManager`."""

    joins: int = 0
    leaves: int = 0
    evictions: int = 0
    handoffs: int = 0
    lost_variables: int = 0
    skipped_changes: int = 0
    fences: int = 0
    epoch_log: list = field(default_factory=list)  # (time_ms, View)


class ViewManager:
    """Drives epoch-based view changes over a running simulation.

    The manager owns the canonical :class:`View` and serializes all
    membership changes through a single fence at a time.  It is wired
    into the rest of the stack through small, explicit hooks rather
    than imports (``protocol_factory`` / ``site_factory`` closures from
    the runner or cluster facade), which keeps this module free of
    dependency cycles.

    Two driving modes:

    * **event-driven** (the runner): changes are enqueued (from a
      :class:`~repro.sim.faults.FaultPlan`'s membership events or the
      detector escalation) and executed by scheduled fence-poll events;
    * **synchronous** (the interactive cluster): :meth:`run_change`
      steps the simulator inline until the fence drains, then mutates.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        placement,
        protocols: "list[CausalProtocol]",
        *,
        protocol_factory: Callable[[int], "CausalProtocol"],
        site_factory: Optional[Callable[[int, "CausalProtocol"], "Site"]] = None,
        sites: Optional["list[Site]"] = None,
        crash_manager: Optional["CrashRecoveryManager"] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.placement = placement
        self.protocols = protocols
        self.protocol_factory = protocol_factory
        self.site_factory = site_factory
        self.sites = sites
        self.crash_manager = crash_manager

        # who is a member (and who is down or departed) is the network's
        # record; the view is the numbered epoch it was announced as
        self.view = View(epoch=0, members=network.members,
                         capacity=network.n_sites)
        #: how and when each departed site left: "left" | "evicted", and
        #: the epoch it departed in (what DepartedSiteError reports)
        self.departures: dict[int, tuple[str, int]] = {}
        self.stats = MembershipStats()
        self.stats.epoch_log.append((sim.now, self.view))

        self._queue: deque[_PendingChange] = deque()
        self._active: Optional[_PendingChange] = None
        self._fence_started = 0.0
        self._evict_pending: set[int] = set()

        if crash_manager is not None:
            crash_manager.view_manager = self

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def detector(self):
        mgr = self.crash_manager
        return None if mgr is None else mgr.detector

    @property
    def durability(self):
        mgr = self.crash_manager
        return None if mgr is None else mgr.durability

    @property
    def epoch(self) -> int:
        return self.view.epoch

    def busy(self) -> bool:
        """True while a change is fencing, queued, or escalation-pending
        — the infrastructure ticks must not go quiescent under it."""
        return (self._active is not None or bool(self._queue)
                or bool(self._evict_pending))

    def membership_status(self, site: int) -> str:
        """``"member"``, ``"left"``, ``"evicted"``, or ``"unknown"``."""
        if self.network.is_member(site):
            return "member"
        gone = self.departures.get(site)
        if gone is not None:
            return gone[0]
        return "unknown"

    def check_member(self, site: int) -> None:
        """Raise the typed error for a non-member site id."""
        if self.network.is_member(site):
            return
        gone = self.departures.get(site)
        if gone is not None:
            raise DepartedSiteError(site, gone[0], gone[1])
        raise UnknownSiteError(site, self.view.capacity)

    # ------------------------------------------------------------------
    # event-driven entry points (runner / detector escalation)
    # ------------------------------------------------------------------
    def schedule_plan(self, membership_events) -> None:
        """Schedule a fault plan's join/leave events on the simulator."""
        from .faults import JoinEvent, LeaveEvent

        for ev in sorted(membership_events, key=lambda e: e.at_ms):
            if isinstance(ev, JoinEvent):
                self.sim.schedule_at(ev.at_ms, self.request_join)
            elif isinstance(ev, LeaveEvent):
                site = ev.site
                self.sim.schedule_at(ev.at_ms,
                                     lambda s=site: self.request_leave(s))
            else:  # pragma: no cover - guarded by FaultPlan.validate
                raise TypeError(f"unknown membership event {ev!r}")

    def request_join(self) -> None:
        self._queue.append(_PendingChange("join"))
        self._pump()

    def request_leave(self, site: int) -> None:
        self._queue.append(_PendingChange("leave", site))
        self._pump()

    def request_evict(self, site: int) -> None:
        if site in self._evict_pending or site in self.network.departed:
            return
        self._evict_pending.add(site)
        self._queue.append(_PendingChange("evict", site))
        self._pump()

    def enable_eviction(self, after_ms: float) -> None:
        """Chain onto the failure detector: persistent suspicion of a
        crash-stopped site escalates into an eviction after ``after_ms``."""
        detector = self.detector
        if detector is None or self.crash_manager is None:
            raise MembershipError(
                "eviction escalation needs a failure detector and crash manager"
            )
        previous = detector.on_suspect

        def hook(observer: int, subject: int, actually_down: bool) -> None:
            if previous is not None:
                previous(observer, subject, actually_down)
            self._note_suspicion(subject, actually_down, after_ms)

        detector.on_suspect = hook

    def _note_suspicion(self, subject: int, actually_down: bool, after: float) -> None:
        if (not actually_down or not self.network.is_member(subject)
                or subject in self._evict_pending):
            return
        mgr = self.crash_manager
        if mgr is None or subject not in mgr.down_forever():
            return  # a recovery is scheduled; let crash recovery handle it
        self._evict_pending.add(subject)
        self.sim.schedule(after, lambda: self._maybe_evict(subject))

    def _maybe_evict(self, subject: int) -> None:
        self._evict_pending.discard(subject)
        if not self.network.is_member(subject):
            return
        mgr = self.crash_manager
        if mgr is None or subject not in mgr.down_forever():
            return  # it recovered (or a recovery got scheduled) meanwhile
        self.request_evict(subject)

    # ------------------------------------------------------------------
    # fence machinery (event-driven mode)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._active is not None:
            return
        while self._queue:
            change = self._queue.popleft()
            action = self._preflight(change)
            if action == "drop":
                self.stats.skipped_changes += 1
                continue
            if action == "retry":
                self.sim.schedule(CHANGE_RETRY_MS,
                                  lambda c=change: self._requeue(c))
                continue
            self._active = change
            self._fence_started = self.sim.now
            self.stats.fences += 1
            self._hold_all(exclude=self._fence_exclude(change))
            self._poll_fence()
            return

    def _requeue(self, change: _PendingChange) -> None:
        self._queue.append(change)
        self._pump()

    def _preflight(self, change: _PendingChange) -> str:
        """Decide whether a queued change can start: run | drop | retry."""
        if change.first_attempt_ms is None:
            change.first_attempt_ms = self.sim.now
        if change.kind == "join":
            return "run"
        site = change.site
        if site is None or site >= self.view.capacity or site < 0:
            self.stats.skipped_changes += 1
            raise UnknownSiteError(int(site) if site is not None else -1,
                                   self.view.capacity)
        if site in self.network.departed:
            return "drop"
        mgr = self.crash_manager
        down = self.network.is_down(site)
        if change.kind == "leave":
            if down:
                if mgr is not None and site in mgr.down_forever():
                    # a crash-stopped leaver cannot drain; escalate
                    change.kind = "evict"
                    self._evict_pending.add(site)
                    return "run"
                if self.sim.now - change.first_attempt_ms > MAX_FENCE_MS:
                    return "drop"
                return "retry"  # recovering; retry once it is back
            return "run"
        if change.kind == "evict":
            if not down:
                self._evict_pending.discard(site)
                return "drop"  # it came back; no eviction needed
            return "run"
        raise MembershipError(f"unknown change kind {change.kind!r}")

    def _fence_exclude(self, change: _PendingChange) -> frozenset:
        if change.kind == "evict" and change.site is not None:
            return frozenset((change.site,))
        return frozenset()

    def _poll_fence(self) -> None:
        change = self._active
        if change is None:  # pragma: no cover - defensive
            return
        exclude = self._fence_exclude(change)
        if self._drained(exclude):
            self._complete(change)
            return
        if self.sim.now - self._fence_started > MAX_FENCE_MS:
            blockers = ", ".join(self._drain_blockers(exclude)) or "unknown"
            raise MembershipError(
                f"view-change fence for {change.kind} of site {change.site} "
                f"did not drain within {MAX_FENCE_MS}ms: {blockers}"
            )
        self.sim.schedule(FENCE_POLL_MS, self._poll_fence)

    def _complete(self, change: _PendingChange) -> None:
        self._mutate(change)
        self._release_all()
        self._active = None
        if self.crash_manager is not None:
            # a joiner brings new work; ticks may have gone quiescent
            self.crash_manager.wake()
        self._pump()

    # ------------------------------------------------------------------
    # synchronous entry point (interactive cluster)
    # ------------------------------------------------------------------
    def run_change(self, kind: str, site: Optional[int] = None) -> View:
        """Fence, drain, and apply one view change by stepping the
        simulator inline.  Used by the interactive cluster facade."""
        if self._active is not None:
            raise MembershipError("a view change is already in progress")
        change = _PendingChange(kind, site)
        action = self._preflight(change)
        if action == "drop":
            self.stats.skipped_changes += 1
            raise DepartedSiteError(site, self.membership_status(site)) \
                if site in self.network.departed else \
                MembershipError(f"{kind} of site {site} is not applicable")
        if action == "retry":
            raise MembershipError(
                f"cannot {kind} site {site}: it is down but scheduled to "
                f"recover; recover it first or evict it"
            )
        exclude = self._fence_exclude(change)
        self._hold_all(exclude=exclude)
        deadline = self.sim.now + MAX_FENCE_MS
        try:
            while not self._drained(exclude):
                if self.sim.now > deadline or not self.sim.step():
                    blockers = ", ".join(self._drain_blockers(exclude)) or "unknown"
                    raise MembershipError(
                        f"cannot drain in-flight work for {kind} of site "
                        f"{site}: {blockers}"
                    )
            view = self._mutate(change)
        finally:
            self._release_all()
        return view

    # ------------------------------------------------------------------
    # fence: hold/release + drain predicate
    # ------------------------------------------------------------------
    def _hold_all(self, exclude: frozenset = frozenset()) -> None:
        if self.sites is None:
            return
        for m in self.network.members:
            if m in exclude or m >= len(self.sites):
                continue
            site = self.sites[m]
            if site is not None:
                site.hold()

    def _release_all(self) -> None:
        if self.sites is None:
            return
        for m in self.network.members:
            if m >= len(self.sites):
                continue
            site = self.sites[m]
            if site is not None:
                site.release()

    def _drain_blockers(self, exclude: frozenset = frozenset()) -> list[str]:
        """Human-readable list of what is keeping the fence open.

        Outstanding remote-read fetches are deliberately *not* part of
        the predicate: a fetch aimed at a crash-stopped site can never
        complete, and waiting on it would deadlock the fence.  Clock
        merges are dimension-tolerant, so a fetch reply crossing an
        epoch boundary is safe.
        """
        blockers: list[str] = []
        net = self.network
        inflight = net.app_messages_in_flight
        if inflight:
            blockers.append(f"{inflight} app message(s) in flight")
        gone = net.down | net.departed | exclude
        live = [m for m in net.members if m not in gone]
        for m in live:
            held = net.held_count(m)
            if held:
                blockers.append(f"{held} message(s) held for paused site {m}")
        transport = net.transport
        if transport is not None:
            unacked = transport.unacked_between_live(gone)
            if unacked:
                blockers.append(f"{unacked} unacked packet(s) between live members")
        for m in live:
            buffered = self.protocols[m].buffered_count
            if buffered:
                blockers.append(f"site {m} has {buffered} buffered message(s)")
        return blockers

    def _drained(self, exclude: frozenset = frozenset()) -> bool:
        return not self._drain_blockers(exclude)

    # ------------------------------------------------------------------
    # mutations (run at a drained fence)
    # ------------------------------------------------------------------
    def _mutate(self, change: _PendingChange) -> View:
        if change.kind == "join":
            view = self._do_join()
        elif change.kind == "leave":
            view = self._do_leave(change.site)
        elif change.kind == "evict":
            view = self._do_evict(change.site)
        else:  # pragma: no cover - guarded by _preflight
            raise MembershipError(f"unknown change kind {change.kind!r}")
        self.stats.epoch_log.append((self.sim.now, view))
        return view

    def _live_members(self) -> list[int]:
        down = self.network.down
        return [m for m in self.network.members if m not in down]

    def _announce(self, view: View, *, skip: frozenset = frozenset()) -> None:
        """Grow/remap every live member of ``view``'s protocol metadata.
        Down members are grown later, by crash recovery, right after
        their checkpoint is restored (see CrashRecoveryManager.recover)."""
        down = self.network.down
        for m in view.members:
            if m in down or m in skip:
                continue
            self.protocols[m].on_view_change(view)

    def _do_join(self) -> View:
        full_mode = self.placement.is_full
        donor_id: Optional[int] = None
        if full_mode:
            live = self._live_members()
            if not live:
                raise MembershipError("join impossible: no live member to donate state")
            donor_id = min(live)

        new_id = self.placement.add_site(replicate_all=full_mode)
        assert new_id == self.view.capacity
        self.network.add_site()

        view = View(
            epoch=self.view.epoch + 1,
            members=self.network.members,
            capacity=new_id + 1,
        )
        # grow the existing live members first so a donor snapshot is
        # already in the new dimension
        self._announce(view, skip=frozenset((new_id,)))

        proto = self.protocol_factory(new_id)
        self.protocols.append(proto)  # the run's one list, shared
        self.network.register(new_id, proto.on_message)

        mgr = self.crash_manager
        if mgr is not None:
            mgr.adopt_site(proto)

        # --- PR-3 bootstrap pipeline: checkpoint restore -> WAL replay ---
        if donor_id is not None:
            state = self.protocols[donor_id].snapshot()
        else:
            state = proto.snapshot()  # fresh, empty replica set
        durability = self.durability
        if durability is not None:
            disk = durability.add_site(proto, state, self.sim.now)
            proto.restore(disk.checkpoint)
            proto.replay(disk.wal)  # empty at bootstrap; shape parity with recovery
        else:
            proto.restore(state)
        if donor_id is not None:
            # the snapshot carries the donor's writer identity; the
            # joiner must start counting its own writes from zero
            proto.reset_writer_identity(new_id)
        proto.on_view_change(view)

        self.view = view
        self.stats.joins += 1

        detector = self.detector
        if detector is not None:
            detector.add_member(new_id)

        if self.site_factory is not None and self.sites is not None:
            site = self.site_factory(new_id, proto)
            self.sites.append(site)
            site.start()
        return view

    def _solely_held(self, victim: int) -> list[int]:
        out = []
        for var in self.placement.vars_at(victim):
            if len(self.placement.replicas(var)) == 1:
                out.append(var)
        return out

    def _successor(self, victim: int, members) -> int:
        cap = self.view.capacity
        return min(members, key=lambda m: ((m - victim) % cap, m))

    def _retire_common(self, victim: int, status: str, view: View) -> None:
        """Shared teardown after the membership structures are updated."""
        net = self.network
        net.retire_site(victim)
        if net.transport is not None:
            net.transport.forget_site(victim)
        detector = self.detector
        if detector is not None:
            detector.remove_member(victim)
        mgr = self.crash_manager
        if mgr is not None:
            mgr.retire_site(victim)
        if self.sites is not None and victim < len(self.sites):
            site = self.sites[victim]
            if site is not None:
                site.retire()
        proto = self.protocols[victim]
        proto.mark_departed()
        self.departures[victim] = (status, view.epoch)

    def _do_leave(self, victim: int) -> View:
        members = [m for m in self.view.members if m != victim]
        if not members:
            raise MembershipError(f"site {victim} is the last member; cannot leave")
        live_rest = [m for m in self._live_members() if m != victim]
        if not live_rest:
            raise MembershipError(
                f"leave of site {victim} would leave no live member to hand off to"
            )
        victim_proto = self.protocols[victim]

        handoff: dict[int, int] = {}
        for var in self._solely_held(victim):
            succ = self._successor(victim, live_rest)
            handoff[var] = succ
            slot = victim_proto.ctx.store.read(var)
            succ_proto = self.protocols[succ]
            succ_proto.ctx.store.adopt(
                var, slot.value, slot.write_id, slot.applied_at
            )
            meta = victim_proto.last_write_on.get(var)
            if meta is not None:
                succ_proto.last_write_on[var] = meta
            self.stats.handoffs += 1

        self.placement.remove_site(victim, handoff)
        view = View(
            epoch=self.view.epoch + 1, members=tuple(members),
            capacity=self.view.capacity,
        )
        self._announce(view)
        self._retire_common(victim, "left", view)
        self.view = view
        self.stats.leaves += 1
        return view

    def _do_evict(self, victim: int) -> View:
        members = [m for m in self.view.members if m != victim]
        if not members:
            raise MembershipError(f"site {victim} is the last member; cannot evict")
        live_rest = [m for m in self._live_members() if m != victim]
        if not live_rest:
            raise MembershipError(
                f"evicting site {victim} would leave no live member"
            )

        handoff: dict[int, int] = {}
        for var in self._solely_held(victim):
            # the victim is crash-stopped: its state is unreachable, so
            # the variable degrades to |bot| at the successor
            succ = self._successor(victim, live_rest)
            handoff[var] = succ
            self.protocols[succ].ctx.store.adopt(var, None, None, self.sim.now)
            self.stats.lost_variables += 1

        self.placement.remove_site(victim, handoff)
        view = View(
            epoch=self.view.epoch + 1, members=tuple(members),
            capacity=self.view.capacity,
        )
        self._announce(view)
        self._retire_common(victim, "evicted", view)
        self._evict_pending.discard(victim)
        self.view = view
        self.stats.evictions += 1
        return view
