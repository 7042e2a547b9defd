"""Seeded flash-crowd driver (overload injection).

Turns the :class:`~repro.sim.faults.OverloadEvent` entries of a
:class:`~repro.sim.faults.FaultPlan` into extra writes fired directly at
the protocol layer — modelling a flash crowd hitting a site on top of
its planned workload.  Injected writes:

* are **not** workload operations: they never touch the operation
  schedule, never call the warm-up ``on_operation`` hook (so the
  measured-window gate is unmoved), and are not counted in
  ``completed_ops``;
* target variables drawn from a dedicated child RNG stream, so enabling
  overload never perturbs the fault injector's or the latency model's
  draws;
* respect graceful degradation: a write refused by
  :class:`~repro.sim.reliable.OverloadError` is *shed* (the admission
  layer did its job, and counts it as ``overload_sheds``), and a site
  that is crashed, held, retired, or departed is *skipped* — a dead
  site has no crowd to serve;
* respect program order: each site is a sequential process, so a tick
  landing while the site has a remote read in flight is *deferred* (the
  crowd's request queues behind the pending operation) — an injected
  write sliding between a read's issue (FM) and completion (RM) would
  violate the session order every checker assumes.  A tick that stays
  blocked past the defer budget is dropped and counted as skipped.

The driver is only constructed when the plan has overload events;
without them nothing is scheduled and the run is byte-identical to a
plan-free run of the same seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .engine import Simulator
from .faults import FaultPlan
from .reliable import OverloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import CausalProtocol
    from ..metrics.collector import MetricsCollector
    from .process import Site

__all__ = ["OverloadDriver"]


class OverloadDriver:
    """Schedules and fires the plan's flash-crowd writes."""

    #: retry cadence while the target site is mid-remote-read
    DEFER_MS = 10.0
    #: defer budget per tick before the queued request is dropped
    MAX_DEFERS = 200

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        protocols: "list[CausalProtocol]",
        sites: "list[Site]",
        n_vars: int,
        rng: np.random.Generator,
        collector: "MetricsCollector",
    ) -> None:
        if n_vars <= 0:
            raise ValueError("overload driver needs at least one variable")
        self.sim = sim
        self.protocols = protocols
        self.sites = sites
        self.n_vars = n_vars
        self.rng = rng
        #: books each write that reached a protocol (``overload_injected``)
        self.collector = collector
        #: ticks skipped because the target site was down/held/departed
        self.skipped = 0
        #: ticks re-queued behind a pending remote read
        self.deferred = 0
        ticks: list[tuple[float, int]] = []
        for ov in plan.overloads:
            for t in ov.ticks():
                for site in ov.sites:
                    ticks.append((t, site))
        # deterministic firing order: by time, then site id
        ticks.sort()
        for t, site in ticks:
            sim.schedule_at(max(t, sim.now), lambda site=site: self._tick(site))

    # ------------------------------------------------------------------
    def _tick(self, site: int, defers: int = 0) -> None:
        from .membership import MembershipError

        proto = self._target(site)
        if proto is None:
            self.skipped += 1
            return
        if proto.reads_in_flight:
            # mid-operation: program order runs through the pending
            # remote read's completion, so the request queues and retries
            if defers >= self.MAX_DEFERS:
                self.skipped += 1
                return
            self.deferred += 1
            self.sim.schedule(self.DEFER_MS, lambda: self._tick(site, defers + 1))
            return
        var = int(self.rng.integers(self.n_vars))
        collector = self.collector
        try:
            proto.admit_put()
            proto.write(var, ("flash", site, collector.overload_injected))
        except OverloadError:
            return  # shed: the admission check counted it
        except MembershipError:
            # the site departed between scheduling and firing (churn);
            # the crowd's request simply fails upstream
            self.skipped += 1
            return
        collector.overload_injected += 1

    def _target(self, site: int) -> "Optional[CausalProtocol]":
        """The protocol to hit, or None when the site cannot serve."""
        if site >= len(self.protocols):
            return None
        app = self.sites[site] if site < len(self.sites) else None
        if app is not None and (app.crashed or app.held or app.retired):
            return None
        return self.protocols[site]
