"""Deterministic fault injection for the simulated network.

The paper's testbed inherits reliable FIFO channels from TCP; the seed
reproduction simply assumed them.  This module supplies the *unreliable*
substrate those channels would really run over: a declarative
:class:`FaultPlan` (per-channel drop probability, duplication, latency
spikes, and scheduled partitions with heal times) interpreted by a
seeded :class:`FaultInjector`.

Determinism contract: the injector owns its **own** ``numpy`` RNG
stream, seeded independently of latency sampling, so the same fault
seed replays a bit-identical fault schedule regardless of the latency
model or workload seed.  Decisions are drawn once per physical packet
transmission, in simulator order, which is itself deterministic.  The
stream is consumed only through the injector (``decide`` and
``next_double``), which reads it in blocks: a draw taken from
``injector.rng`` directly lands up to 256 doubles late.

The recovery machinery that turns this lossy substrate back into the
exactly-once FIFO channels the protocols require lives in
:mod:`repro.sim.reliable`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ChannelFaults",
    "Partition",
    "CrashEvent",
    "JoinEvent",
    "LeaveEvent",
    "OverloadEvent",
    "FaultPlan",
    "FaultDecision",
    "FaultInjector",
    "seeded_crashes",
    "seeded_churn",
]


@dataclass(frozen=True)
class ChannelFaults:
    """Fault rates for one directed channel (all probabilities per packet)."""

    #: probability a transmitted packet is silently lost
    drop_rate: float = 0.0
    #: probability a delivered packet also arrives a second time
    dup_rate: float = 0.0
    #: probability a delivered packet suffers an extra latency spike
    spike_rate: float = 0.0
    #: uniform range (ms) of the extra delay a spike adds
    spike_ms: tuple[float, float] = (100.0, 500.0)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        lo, hi = self.spike_ms
        if not 0.0 <= lo <= hi:
            raise ValueError(f"invalid spike range {self.spike_ms}")


@dataclass(frozen=True)
class Partition:
    """Sites in ``group`` are cut off from everyone else in [start, heal).

    Packets crossing the boundary (either direction) are dropped for the
    whole window; ``heal_ms=inf`` means the partition never heals on its
    own (used for the interactive ``CausalCluster.partition`` helper,
    which heals explicitly).
    """

    group: frozenset[int]
    start_ms: float = 0.0
    heal_ms: float = math.inf

    def __init__(self, group: Iterable[int], start_ms: float = 0.0,
                 heal_ms: float = math.inf) -> None:
        object.__setattr__(self, "group", frozenset(group))
        object.__setattr__(self, "start_ms", float(start_ms))
        object.__setattr__(self, "heal_ms", float(heal_ms))
        if not self.group:
            raise ValueError("partition group cannot be empty")
        if not 0.0 <= self.start_ms <= self.heal_ms:
            raise ValueError(
                f"invalid partition window [{self.start_ms}, {self.heal_ms})"
            )

    def severs(self, src: int, dst: int, now: float) -> bool:
        """True when a packet src->dst at ``now`` crosses the active cut."""
        if not self.start_ms <= now < self.heal_ms:
            return False
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class CrashEvent:
    """Site ``site`` crashes at ``at_ms``; volatile state is lost.

    ``recover_ms=inf`` models crash-stop (the site never comes back);
    a finite value models crash-recovery: at ``recover_ms`` the site
    restores its last checkpoint, replays its write-ahead log, catches
    up missed updates from live replicas, and resumes its schedule.
    """

    site: int
    at_ms: float
    recover_ms: float = math.inf

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ValueError(f"crash site must be >= 0, got {self.site}")
        if not 0.0 <= self.at_ms < self.recover_ms:
            raise ValueError(
                f"invalid crash window [{self.at_ms}, {self.recover_ms}) "
                f"for site {self.site}"
            )

    @property
    def is_crash_stop(self) -> bool:
        return not math.isfinite(self.recover_ms)


@dataclass(frozen=True)
class JoinEvent:
    """A new site joins the cluster at ``at_ms``.

    The joiner's id is assigned by the view manager (next never-used
    id), so the event only carries a time.  Under full replication the
    joiner is bootstrapped from a live donor's drained snapshot; under
    partial replication it starts with an empty replica set.
    """

    at_ms: float

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ValueError(f"join time must be >= 0, got {self.at_ms}")


@dataclass(frozen=True)
class LeaveEvent:
    """Site ``site`` leaves the cluster gracefully at ``at_ms``.

    A leave drains in-flight deliveries, hands off solely-held replicas
    to a live successor, and retires the site.  Leaving is only possible
    while the site is up; a crash-stopped leaver escalates to eviction.
    """

    site: int
    at_ms: float

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ValueError(f"leave site must be >= 0, got {self.site}")
        if self.at_ms < 0.0:
            raise ValueError(f"leave time must be >= 0, got {self.at_ms}")


MembershipEvent = Union[JoinEvent, LeaveEvent]


@dataclass(frozen=True)
class OverloadEvent:
    """A flash crowd hammers ``sites`` with extra writes in [start, end).

    The runner's overload driver injects one additional write every
    ``interval_ms`` at each listed site (on top of its planned schedule)
    until the window closes.  Variables are drawn from a dedicated
    seeded RNG stream, so the injected load replays bit-identically.
    A tick at a site that is down, held, or departed is skipped; a tick
    at a site whose transport reports hard overload is *shed* (typed as
    :class:`~repro.sim.reliable.OverloadError` at admission) — both
    outcomes are counted, so soak runs can assert the flash crowd both
    happened and was survived.
    """

    sites: tuple[int, ...]
    start_ms: float
    end_ms: float
    interval_ms: float

    def __init__(self, sites: Iterable[int], start_ms: float,
                 end_ms: float, interval_ms: float) -> None:
        object.__setattr__(self, "sites", tuple(sorted({int(s) for s in sites})))
        object.__setattr__(self, "start_ms", float(start_ms))
        object.__setattr__(self, "end_ms", float(end_ms))
        object.__setattr__(self, "interval_ms", float(interval_ms))
        if not self.sites:
            raise ValueError("overload event needs at least one target site")
        if self.sites[0] < 0:
            raise ValueError("overload sites must be >= 0")
        if not math.isfinite(self.end_ms):
            raise ValueError("overload windows must end (no infinite flash crowds)")
        if not 0.0 <= self.start_ms < self.end_ms:
            raise ValueError(
                f"invalid overload window [{self.start_ms}, {self.end_ms})"
            )
        if not self.interval_ms > 0.0:
            raise ValueError(
                f"overload interval must be positive, got {self.interval_ms}"
            )

    def ticks(self) -> list[float]:
        """Deterministic injection instants for one target site."""
        out = []
        t = self.start_ms
        while t < self.end_ms:
            out.append(t)
            t += self.interval_ms
        return out


def seeded_crashes(
    n_sites: int,
    *,
    n_crashes: int = 1,
    window_ms: tuple[float, float] = (500.0, 3000.0),
    downtime_ms: tuple[float, float] = (400.0, 1200.0),
    crash_stop: bool = False,
    seed: int = 0,
) -> tuple[CrashEvent, ...]:
    """Draw a random non-overlapping crash schedule from a seed.

    Victims are distinct sites; crash instants fall in ``window_ms`` and
    (unless ``crash_stop``) each site recovers after a downtime drawn
    from ``downtime_ms``.
    """
    if n_crashes > n_sites:
        raise ValueError("cannot crash more distinct sites than exist")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    victims = rng.choice(n_sites, size=n_crashes, replace=False)
    events = []
    for site in sorted(int(v) for v in victims):
        at = float(rng.uniform(*window_ms))
        if crash_stop:
            events.append(CrashEvent(site, at))
        else:
            events.append(CrashEvent(site, at, at + float(rng.uniform(*downtime_ms))))
    return tuple(events)


def seeded_churn(
    n_sites: int,
    *,
    n_joins: int = 1,
    n_leaves: int = 1,
    window_ms: tuple[float, float] = (500.0, 3000.0),
    seed: int = 0,
    avoid: Iterable[int] = (),
) -> tuple[MembershipEvent, ...]:
    """Draw a random membership-churn schedule from a seed.

    Leave victims are distinct initial sites outside ``avoid`` (pass the
    crash victims of a composed plan so a site is never asked to both
    crash and leave); join/leave instants fall uniformly in
    ``window_ms``.  The result composes with drop/dup/partition/crash
    plans via ``FaultPlan.build(membership=...)``.
    """
    avoid_set = {int(s) for s in avoid}
    candidates = [s for s in range(n_sites) if s not in avoid_set]
    if n_leaves > len(candidates):
        raise ValueError(
            f"cannot pick {n_leaves} distinct leavers from {len(candidates)} "
            f"eligible sites (n_sites={n_sites}, avoid={sorted(avoid_set)})"
        )
    if n_leaves >= n_sites:
        raise ValueError("at least one initial site must remain a member")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    events: list[MembershipEvent] = []
    for _ in range(n_joins):
        events.append(JoinEvent(float(rng.uniform(*window_ms))))
    victims = rng.choice(len(candidates), size=n_leaves, replace=False)
    for idx in sorted(int(v) for v in victims):
        events.append(LeaveEvent(candidates[idx], float(rng.uniform(*window_ms))))
    return tuple(sorted(events, key=lambda e: e.at_ms))


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of everything that goes wrong in a run.

    ``channels`` holds per-channel overrides as a sorted tuple of
    ``((src, dst), ChannelFaults)`` pairs so the plan stays hashable
    (and therefore usable inside a frozen ``SimulationConfig``); use
    :meth:`build` to construct one from a plain dict.
    """

    default: ChannelFaults = field(default_factory=ChannelFaults)
    channels: tuple[tuple[tuple[int, int], ChannelFaults], ...] = ()
    partitions: tuple[Partition, ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    membership: tuple[MembershipEvent, ...] = ()
    overloads: tuple[OverloadEvent, ...] = ()

    @classmethod
    def build(
        cls,
        default: Optional[ChannelFaults] = None,
        channels: Optional[Mapping[tuple[int, int], ChannelFaults]] = None,
        partitions: Sequence[Partition] = (),
        crashes: Sequence[CrashEvent] = (),
        membership: Sequence[MembershipEvent] = (),
        overloads: Sequence[OverloadEvent] = (),
    ) -> "FaultPlan":
        return cls(
            default=default if default is not None else ChannelFaults(),
            channels=tuple(sorted((channels or {}).items())),
            partitions=tuple(partitions),
            crashes=tuple(crashes),
            membership=tuple(membership),
            overloads=tuple(overloads),
        )

    @classmethod
    def uniform(
        cls,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_ms: tuple[float, float] = (100.0, 500.0),
        partitions: Sequence[Partition] = (),
        crashes: Sequence[CrashEvent] = (),
        membership: Sequence[MembershipEvent] = (),
        overloads: Sequence[OverloadEvent] = (),
    ) -> "FaultPlan":
        """The common case: one fault profile applied to every channel."""
        return cls.build(
            default=ChannelFaults(drop_rate, dup_rate, spike_rate, spike_ms),
            partitions=partitions,
            crashes=crashes,
            membership=membership,
            overloads=overloads,
        )

    def validate(self, horizon_ms: Optional[float] = None) -> None:
        """Reject plans that cannot be interpreted coherently.

        Checks: two partitions of the *same* group must not overlap in
        time (the injector cannot tell which heal event closes which
        window); crash windows of the same site must not overlap (a site
        cannot crash while already down); and, when the caller knows the
        workload's stop condition, no crash may *begin* after
        ``horizon_ms`` — it could never be observed by the run.
        """
        by_group: dict[frozenset[int], list[Partition]] = {}
        for p in self.partitions:
            by_group.setdefault(p.group, []).append(p)
        for group, parts in by_group.items():
            parts.sort(key=lambda p: p.start_ms)
            for a, b in zip(parts, parts[1:]):
                if b.start_ms < a.heal_ms:
                    raise ValueError(
                        f"overlapping partitions of group {sorted(group)}: "
                        f"[{a.start_ms}, {a.heal_ms}) and "
                        f"[{b.start_ms}, {b.heal_ms}) — merge them or "
                        f"stagger their windows"
                    )
        by_site: dict[int, list[CrashEvent]] = {}
        for c in self.crashes:
            by_site.setdefault(c.site, []).append(c)
        for site, events in by_site.items():
            events.sort(key=lambda c: c.at_ms)
            for a, b in zip(events, events[1:]):
                if b.at_ms < a.recover_ms:
                    raise ValueError(
                        f"overlapping crash windows for site {site}: "
                        f"[{a.at_ms}, {a.recover_ms}) and "
                        f"[{b.at_ms}, {b.recover_ms}) — a site cannot "
                        f"crash while it is already down"
                    )
        if horizon_ms is not None:
            for c in self.crashes:
                if c.at_ms > horizon_ms:
                    raise ValueError(
                        f"crash of site {c.site} at {c.at_ms}ms starts after "
                        f"the stop condition ({horizon_ms}ms) and can never "
                        f"be observed — move it earlier or drop it"
                    )
        leavers: set[int] = set()
        for ev in self.membership:
            if not isinstance(ev, (JoinEvent, LeaveEvent)):
                raise ValueError(f"unknown membership event {ev!r}")
            if isinstance(ev, LeaveEvent):
                if ev.site in leavers:
                    raise ValueError(
                        f"site {ev.site} is scheduled to leave twice — a "
                        f"departed id is never reused"
                    )
                leavers.add(ev.site)
            if horizon_ms is not None and ev.at_ms > horizon_ms:
                raise ValueError(
                    f"membership event {ev!r} starts after the stop "
                    f"condition ({horizon_ms}ms) and can never be observed"
                )
        for ov in self.overloads:
            ticks = (ov.end_ms - ov.start_ms) / ov.interval_ms
            if ticks * len(ov.sites) > 1_000_000:
                raise ValueError(
                    f"overload event {ov!r} would inject over a million "
                    f"operations — widen interval_ms or shrink the window"
                )
        crash_stoppers = {c.site for c in self.crashes if c.is_crash_stop}
        doomed = leavers & crash_stoppers
        if doomed:
            raise ValueError(
                f"sites {sorted(doomed)} are scheduled to both crash-stop "
                f"and leave — a crash-stopped site cannot drain; rely on "
                f"eviction instead"
            )

    def faults_for(self, src: int, dst: int) -> ChannelFaults:
        for key, faults in self.channels:
            if key == (src, dst):
                return faults
        return self.default

    def heal_times(self) -> list[float]:
        """Finite heal timestamps, sorted and deduplicated."""
        return sorted({p.heal_ms for p in self.partitions if math.isfinite(p.heal_ms)})

    # ------------------------------------------------------------------
    # serialization — CI chaos artifacts must reproduce exactly
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe dict view (``inf`` windows encode as ``None``)."""

        def faults_dict(cf: ChannelFaults) -> dict:
            return {
                "drop_rate": cf.drop_rate,
                "dup_rate": cf.dup_rate,
                "spike_rate": cf.spike_rate,
                "spike_ms": list(cf.spike_ms),
            }

        def finite(x: float) -> Optional[float]:
            return x if math.isfinite(x) else None

        membership = []
        for ev in self.membership:
            if isinstance(ev, JoinEvent):
                membership.append({"kind": "join", "at_ms": ev.at_ms})
            else:
                membership.append(
                    {"kind": "leave", "site": ev.site, "at_ms": ev.at_ms}
                )
        return {
            "default": faults_dict(self.default),
            "channels": [
                {"src": src, "dst": dst, "faults": faults_dict(cf)}
                for (src, dst), cf in self.channels
            ],
            "partitions": [
                {
                    "group": sorted(p.group),
                    "start_ms": p.start_ms,
                    "heal_ms": finite(p.heal_ms),
                }
                for p in self.partitions
            ],
            "crashes": [
                {
                    "site": c.site,
                    "at_ms": c.at_ms,
                    "recover_ms": finite(c.recover_ms),
                }
                for c in self.crashes
            ],
            "membership": membership,
            "overloads": [
                {
                    "sites": list(ov.sites),
                    "start_ms": ov.start_ms,
                    "end_ms": ov.end_ms,
                    "interval_ms": ov.interval_ms,
                }
                for ov in self.overloads
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        """Inverse of :meth:`as_dict`.  A level that should be a mapping
        and is not raises ``ValueError`` (plan JSON is untrusted input)."""

        def obj(x: object, what: str) -> Mapping:
            if isinstance(x, Mapping):
                return x
            raise ValueError(f"{what} must be a JSON object, not {type(x).__name__}")

        def each(key: str) -> list[Mapping]:
            return [obj(x, f"each {key!r} entry") for x in data.get(key, ())]

        def faults(d: object, what: str) -> ChannelFaults:
            d = obj(d, what)
            return ChannelFaults(
                drop_rate=float(d.get("drop_rate", 0.0)),
                dup_rate=float(d.get("dup_rate", 0.0)),
                spike_rate=float(d.get("spike_rate", 0.0)),
                spike_ms=tuple(d.get("spike_ms", (100.0, 500.0))),
            )

        def window(x: Optional[float]) -> float:
            return math.inf if x is None else float(x)

        data = obj(data, "a fault plan")
        membership: list[MembershipEvent] = []
        for ev in each("membership"):
            if ev["kind"] == "join":
                membership.append(JoinEvent(float(ev["at_ms"])))
            elif ev["kind"] == "leave":
                membership.append(LeaveEvent(int(ev["site"]), float(ev["at_ms"])))
            else:
                raise ValueError(f"unknown membership event kind {ev['kind']!r}")
        return cls.build(
            default=faults(data.get("default", {}), "'default'"),
            channels={
                (int(ch["src"]), int(ch["dst"])): faults(
                    ch["faults"], "a channel's 'faults'")
                for ch in each("channels")
            },
            partitions=[
                Partition(
                    p["group"], float(p.get("start_ms", 0.0)),
                    window(p.get("heal_ms")),
                )
                for p in each("partitions")
            ],
            crashes=[
                CrashEvent(
                    int(c["site"]), float(c["at_ms"]), window(c.get("recover_ms"))
                )
                for c in each("crashes")
            ],
            membership=membership,
            overloads=[
                OverloadEvent(
                    ov["sites"], float(ov["start_ms"]), float(ov["end_ms"]),
                    float(ov["interval_ms"]),
                )
                for ov in each("overloads")
            ],
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize for a CI chaos artifact; round-trips exactly."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class FaultDecision(NamedTuple):
    """Outcome of one per-packet draw."""

    drop: bool
    duplicates: int
    extra_delay_ms: float
    severed: bool


#: decision for a fault-free transmission (shared, allocation-free)
NO_FAULT = FaultDecision(False, 0, 0.0, False)
_DROPPED = FaultDecision(True, 0, 0.0, False)
_SEVERED = FaultDecision(True, 0, 0.0, True)


@dataclass
class _DynamicPartition:
    """A partition started interactively; healed by ``heal_partitions``."""

    group: frozenset[int]
    start_ms: float
    heal_ms: float = math.inf


class FaultInjector:
    """Interprets a :class:`FaultPlan` with a dedicated RNG stream.

    One instance serves a whole network.  ``decide`` is called once per
    physical packet transmission and counts its calls; what each
    decision injected is booked by the network that acts on it, into
    the run's collector (``injected_drops``, ``injected_dups``, ...).
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.plan.validate()
        self.rng = rng if rng is not None else np.random.default_rng(
            np.random.SeedSequence(seed)
        )
        self._dynamic: list[_DynamicPartition] = []
        # the stream, read in blocks: NumPy fills a block from the same
        # bits as that many scalar draws, so only a draw's cost changes
        self._doubles: list[float] = []
        self._pos = 0
        #: lifetime calls of :meth:`decide`
        self.decisions = 0

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def severed(self, src: int, dst: int, now: float) -> bool:
        """True when any partition (planned or dynamic) cuts src->dst now."""
        for p in self.plan.partitions:
            if p.severs(src, dst, now):
                return True
        for d in self._dynamic:
            if d.start_ms <= now < d.heal_ms and (src in d.group) != (dst in d.group):
                return True
        return False

    def start_partition(self, group: Iterable[int], now: float) -> frozenset[int]:
        """Begin an open-ended partition isolating ``group`` at ``now``."""
        g = frozenset(group)
        if not g:
            raise ValueError("partition group cannot be empty")
        self._dynamic.append(_DynamicPartition(group=g, start_ms=now))
        return g

    def heal_partitions(self, now: float) -> list[frozenset[int]]:
        """Heal every active dynamic partition; returns the healed groups."""
        healed = []
        for d in self._dynamic:
            if d.start_ms <= now < d.heal_ms:
                d.heal_ms = now
                healed.append(d.group)
        return healed

    def unhealed_partitions(self, now: float) -> list[frozenset[int]]:
        """Active partitions that will never heal by themselves."""
        groups = [
            p.group for p in self.plan.partitions
            if p.start_ms <= now and not math.isfinite(p.heal_ms)
        ]
        groups += [
            d.group for d in self._dynamic
            if d.start_ms <= now and not math.isfinite(d.heal_ms)
        ]
        return groups

    # ------------------------------------------------------------------
    # per-packet decisions
    # ------------------------------------------------------------------
    def _refill(self) -> list[float]:
        """Put a fresh block behind whatever is unread."""
        self._doubles = (self._doubles[self._pos:]
                         + self.rng.random(256).tolist())
        self._pos = 0
        return self._doubles

    def next_double(self) -> float:
        """The stream's next double in ``[0, 1)``; NumPy's own
        ``uniform(lo, hi)`` is ``lo + (hi - lo)`` times it, to the bit."""
        if self._pos >= len(self._doubles):
            self._refill()
        self._pos += 1
        return self._doubles[self._pos - 1]

    def decide(self, src: int, dst: int, now: float) -> FaultDecision:
        """Draw the fate of one physical packet transmission."""
        self.decisions += 1
        plan = self.plan
        if (plan.partitions or self._dynamic) and self.severed(src, dst, now):
            return _SEVERED
        faults = plan.faults_for(src, dst) if plan.channels else plan.default
        drop_rate = faults.drop_rate
        dup_rate = faults.dup_rate
        spike_rate = faults.spike_rate
        if not (drop_rate or dup_rate or spike_rate):
            return NO_FAULT  # quiet: nothing drawn
        # the stream read in place (no call per draw): ``buf[pos]`` is
        # the next double, and one decision reads at most four
        buf, pos = self._doubles, self._pos
        if pos + 4 > len(buf):
            buf, pos = self._refill(), 0
        if drop_rate:
            pos += 1
            if buf[pos - 1] < drop_rate:
                self._pos = pos
                return _DROPPED
        duplicates = 0
        if dup_rate:
            pos += 1
            if buf[pos - 1] < dup_rate:
                duplicates = 1
        extra = 0.0
        if spike_rate:
            pos += 1
            if buf[pos - 1] < spike_rate:
                lo, hi = faults.spike_ms
                extra = lo + (hi - lo) * buf[pos]
                pos += 1
        self._pos = pos
        if duplicates == 0 and extra == 0.0:
            return NO_FAULT
        return FaultDecision(False, duplicates, extra, False)

    def __repr__(self) -> str:
        return f"<FaultInjector decisions={self.decisions}>"
