"""Interactive facade: drive a replicated cluster operation by operation.

:func:`repro.experiments.runner.run_simulation` executes pre-planned
workloads; :class:`CausalCluster` instead exposes the protocols as a
library a downstream application would call directly::

    from repro import CausalCluster

    cluster = CausalCluster(n_sites=5, protocol="opt-track", n_vars=8)
    cluster.write(0, var=3, value=42)
    cluster.settle()                  # deliver everything in flight
    assert cluster.read(4, var=3) == 42
    cluster.check().raise_if_violated()

The cluster is wired by :func:`~repro.experiments.runner.build_system`,
the builder ``run_simulation`` uses: the same placement, seeded latency
and fault streams, network, protocols and crash-recovery stack.  Only
the workload, the warm-up gate and the scheduled plans are the runner's.

Operations execute at the cluster's current simulated time; ``advance``
moves time forward (delivering messages along the way), ``settle`` runs
to quiescence.  ``read`` drives the simulator just far enough for the
read to complete when it must fetch remotely, so it can simply return
the value.

That surface — ``read`` / ``read_with_id`` / ``advance`` / ``settle`` /
``check`` — is :class:`Cluster`'s, written once for every substrate
that runs on a :class:`~repro.sim.engine.Simulator`.
:class:`~repro.loopback.LoopbackCluster` is the other one: the live
service stack with the kernel as its clock.  A fault operation only the
simulator has (``partition``, ``crash_site`` ...) lives on
:class:`CausalCluster` alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

from .core.base import CausalProtocol, get_protocol_class
from .core.recovery import DetectorPolicy
from .experiments.runner import SimulationConfig, build_system
from .memory.replication import Placement
from .memory.store import WriteId
from .obs.tracer import Tracer
from .sim.engine import Simulator
from .sim.faults import FaultPlan
from .sim.network import LatencyModel, UniformLatency
from .sim.reliable import RetransmitPolicy
from .verify.causal_checker import CheckReport, check_causal_consistency
from .verify.history import HistoryRecorder

__all__ = ["Cluster", "CausalCluster"]

#: a read's completion callback: ``(value, write_id, was_remote)``
ReadCallback = Callable[[object, Optional[WriteId], bool], None]


class Cluster(ABC):
    """Sites of one protocol on a simulation kernel, driven manually.

    A substrate sets ``sim`` (the kernel its messages and timers ride),
    ``placement``, ``protocols`` (one core per site, in site order) and
    ``history`` (the one recorder every site writes), and says how a
    write and a read are issued at a site and what besides the
    protocols' buffers must be empty at quiescence.
    """

    sim: Simulator
    placement: Placement
    protocols: list[CausalProtocol]
    history: Optional[HistoryRecorder]

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.sim.now

    @abstractmethod
    def write(self, site: int, var: int, value: object) -> WriteId:
        """Issue w(x_var)value at ``site`` at the current simulated time."""

    @abstractmethod
    def _issue_read(self, site: int, var: int, on_complete: ReadCallback) -> None:
        """Issue r(x_var) at ``site``; ``on_complete`` fires when it is done."""

    @abstractmethod
    def _unsettled(self) -> Optional[str]:
        """Why the drained kernel is not quiescence, if it is not."""

    def read(self, site: int, var: int) -> object:
        """Issue r(x_var) at ``site``; returns the value (driving the
        simulator forward if a remote fetch is needed)."""
        value, _ = self.read_with_id(site, var)
        return value

    def read_with_id(self, site: int, var: int) -> tuple[object, Optional[WriteId]]:
        """Like :meth:`read` but also returns the write id of the value."""
        done: list[tuple[object, Optional[WriteId]]] = []
        self._issue_read(site, var,
                         lambda value, wid, was_remote: done.append((value, wid)))
        while not done:
            if not self.sim.step():
                raise RuntimeError(
                    f"read of var {var} at site {site} can never complete "
                    "(no events left — protocol deadlock?)"
                )
        return done[0]

    def advance(self, delta_ms: float) -> None:
        """Run the simulation ``delta_ms`` ms forward."""
        if delta_ms < 0:
            raise ValueError("cannot advance by a negative duration")
        self.sim.run(until=self.sim.now + delta_ms)

    def settle(self) -> None:
        """Run until every in-flight message is delivered and applied."""
        self.sim.run()
        problem = self._unsettled()
        if problem is None:
            undrained = {p.site: p.pending_count
                         for p in self.protocols if p.pending_count}
            if undrained:
                problem = f"cluster cannot settle; buffers stuck: {undrained}"
        if problem is not None:
            raise RuntimeError(problem)

    def check(self) -> CheckReport:
        """Run the causal-consistency checker over everything so far."""
        if self.history is None:
            raise RuntimeError("cluster was built with record_history=False")
        return check_causal_consistency(self.history, self.placement)


class CausalCluster(Cluster):
    """A causally consistent replicated key-value memory, driven manually."""

    def __init__(
        self,
        n_sites: int,
        *,
        protocol: str = "opt-track",
        n_vars: int = 16,
        replication_factor: Optional[int] = None,
        latency: Optional[LatencyModel] = None,
        bandwidth_bytes_per_ms: Optional[float] = None,
        seed: int = 0,
        record_history: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: int = 0,
        retransmit: Optional[RetransmitPolicy] = None,
        tracer: Optional[Tracer] = None,
        crash_recovery: bool = False,
        checkpoint_interval_ms: Optional[float] = None,
        detector: Optional[DetectorPolicy] = None,
    ) -> None:
        if fault_plan is not None and fault_plan.overloads:
            # only run_simulation schedules these; honouring half a plan
            # silently would look like a quiet run
            raise ValueError(
                "CausalCluster schedules a fault plan's channel faults, "
                "partitions and crashes only; drive overload with write()"
            )
        self.config = config = SimulationConfig(
            protocol=protocol,
            n_sites=n_sites,
            n_vars=n_vars,
            replication_factor=replication_factor,
            seed=seed,
            latency=latency if latency is not None else UniformLatency(),
            bandwidth_bytes_per_ms=bandwidth_bytes_per_ms,
            record_history=record_history,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
            retransmit=retransmit,
            checkpoint_interval_ms=checkpoint_interval_ms,
            detector=detector,
        )
        # the crash stack attaches here, not at the first crash_site():
        # the WAL only covers operations issued after it hooks in
        self._system = system = build_system(
            config, tracer=tracer, crash_recovery=crash_recovery)
        self.placement = system.placement
        self.sim = system.sim
        self.collector = system.collector
        self.faults = system.faults
        self.network = system.network
        self.history = system.history
        self.protocols = system.protocols
        self.crash_manager = system.crash_manager
        self.collector.start_measuring()  # no warm-up in interactive mode
        self._op_counter = 0

    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of sites, fixed for the cluster's lifetime."""
        return self.network.n_sites

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(
                f"site {site} is out of range: the cluster has sites "
                f"0..{self.n_sites - 1}")

    def _check_up(self, site: int) -> None:
        if self.network.is_down(site):
            raise RuntimeError(
                f"site {site} is down; recover_site({site}) first"
            )

    def _wake(self) -> None:
        """Restart infrastructure ticks that stopped at quiescence."""
        if self.crash_manager is not None:
            self.crash_manager.wake()

    # ------------------------------------------------------------------
    def write(self, site: int, var: int, value: object) -> WriteId:
        """Issue w(x_var)value at ``site`` at the current simulated time.

        Interactive writes go through overload admission: once the
        site's outbound transport backlog exceeds the retransmit
        policy's shed threshold the write is refused with
        :class:`~repro.sim.reliable.OverloadError` (graceful shedding)
        instead of queuing unboundedly.  Advance the simulation to let
        the backlog drain, then retry.
        """
        self._check_site(site)
        self._check_up(site)
        self.protocols[site].admit_put()
        self._wake()
        self._op_counter += 1
        return self.protocols[site].write(var, value, op_index=self._op_counter)

    def _issue_read(self, site: int, var: int, on_complete: ReadCallback) -> None:
        self._check_site(site)
        self._check_up(site)
        self._wake()
        self._op_counter += 1
        self.protocols[site].read(var, on_complete, op_index=self._op_counter)

    def settle(self) -> None:
        """Run until every in-flight message is delivered and applied."""
        transport = self.network.transport
        if transport is not None:
            blocked = transport.blocked_channels(self.sim.now)
            if blocked:
                raise RuntimeError(
                    f"cluster cannot settle while a partition is active "
                    f"(channels blocked: {sorted(blocked)}); call heal() first"
                )
        super().settle()

    def _unsettled(self) -> Optional[str]:
        if self.network.down:
            return (f"cluster cannot settle while sites are down "
                    f"({sorted(self.network.down)}); recover them first")
        held = self._held_by_site()
        if held:
            return (f"cluster cannot settle while sites are paused "
                    f"(held messages per site: {held}); resume them first")
        return None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def pause_site(self, site: int) -> None:
        """Hold all deliveries to ``site`` (model a stalled process)."""
        self._check_site(site)
        self._wake()  # the failure detector must be running to notice
        self.network.pause_site(site)

    def resume_site(self, site: int) -> None:
        """Flush held deliveries to ``site`` (through the event loop, so
        run ``settle``/``advance`` to observe them) and resume normal flow."""
        self._check_site(site)
        self._wake()
        self.network.resume_site(site)

    def partition(self, sites: "set[int] | Sequence[int]") -> None:
        """Cut ``sites`` off from the rest of the cluster, starting now.

        Requires the chaos transport (build the cluster with a
        ``fault_plan=`` — ``FaultPlan()`` is fine): without the reliable
        ack/retransmit layer, severed messages would simply be lost and
        the protocols could never recover.  Heal with :meth:`heal`.
        """
        if self.faults is None:
            raise RuntimeError(
                "partition() needs the chaos transport; construct the "
                "cluster with fault_plan=FaultPlan() (or richer) first"
            )
        group = set(sites)
        for s in group:
            self._check_site(s)
        self._wake()  # severed heartbeats must be noticed by the detector
        self.faults.start_partition(group, self.sim.now)

    def heal(self) -> None:
        """Heal every active interactive partition; severed traffic is
        retransmitted eagerly and per-site recovery latency is recorded."""
        if self.faults is None:
            return
        self._wake()
        healed = self.faults.heal_partitions(self.sim.now)
        transport = self.network.transport
        for group in healed:
            transport.on_heal(self.sim.now, group)

    # ------------------------------------------------------------------
    # crash-recovery (interactive)
    # ------------------------------------------------------------------
    def crash_site(self, site: int) -> None:
        """Kill ``site`` now: volatile state (buffers, timers, an
        in-progress fetch) is lost; checkpoints and the WAL survive.

        Requires the cluster to have been built with
        ``crash_recovery=True`` (plus a ``fault_plan=`` for the chaos
        transport) so the durability layer has been journaling since
        construction.
        """
        self._check_site(site)
        if self.crash_manager is None:
            raise RuntimeError(
                "crash_site() needs the crash-recovery machinery; build "
                "the cluster with crash_recovery=True and fault_plan=..."
            )
        self._wake()
        self.crash_manager.crash(site)

    def recover_site(self, site: int) -> None:
        """Restore ``site`` from its checkpoint + WAL and start catch-up.

        The rejoin (anti-entropy rounds, backlog retransmission) runs
        through the event loop — ``advance``/``settle`` to let it finish;
        :meth:`pending_breakdown` shows the backlog draining.
        """
        self._check_site(site)
        if self.crash_manager is None:
            raise RuntimeError("no crash-recovery machinery installed")
        self._wake()
        self.crash_manager.recover(site)

    def _held_by_site(self) -> dict[int, int]:
        return {
            s: self.network.held_count(s)
            for s in range(self.n_sites)
            if self.network.held_count(s)
        }

    def pending_breakdown(self) -> dict[str, int]:
        """Where every not-yet-applied message currently lives.

        * ``buffered`` — delivered but parked in an activation buffer;
        * ``held_for_paused`` — delivery withheld for a paused site;
        * ``held_for_crashed`` — durably queued at senders for a crashed
          site (re-counted into ``in_flight`` as the rejoin drains it);
        * ``in_flight`` — on the wire: sent but not yet delivered (plain
          path), or unacked between live sites (chaos path).
        """
        buffered = sum(p.pending_count for p in self.protocols)
        held_paused = sum(self._held_by_site().values())
        held_crashed = 0
        transport = self.network.transport
        if transport is None:
            in_flight = self.network.app_messages_in_flight
        else:
            held_crashed = sum(transport.unacked_to(d)
                               for d in self.network.down)
            in_flight = transport.unacked_count() - held_crashed
        return {
            "buffered": buffered,
            "held_for_paused": held_paused,
            "held_for_crashed": held_crashed,
            "in_flight": in_flight,
        }

    def pending_messages(self) -> int:
        """Messages accepted but not yet applied cluster-wide: buffered
        by activation predicates, held for paused sites, or held durably
        at senders for crashed sites.  (In-flight packets between live
        sites are excluded — they are the network's business, not a
        backlog.)"""
        b = self.pending_breakdown()
        return b["buffered"] + b["held_for_paused"] + b["held_for_crashed"]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        cls = get_protocol_class(self.config.protocol).__name__
        return (
            f"CausalCluster(n={self.n_sites}, protocol={cls}, "
            f"q={self.config.n_vars}, p={self.placement.replication_factor}, "
            f"t={self.now:.1f}ms)"
        )
