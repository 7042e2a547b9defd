"""Replica convergence analysis.

Causal memory deliberately does **not** imply convergence: two writes
that are concurrent under ->co may be applied in different orders at
different replicas, leaving their final values divergent (that is the
price of low latency; "causal+" systems bolt on convergent conflict
handling to fix it — Lloyd et al.'s COPS being the canonical example).

This module measures, at quiescence, which variables diverged across
replicas and verifies the divergence is *legitimate*: the distinct final
values must come from causally concurrent writes.  A divergence between
causally *ordered* writes would mean an activation-predicate bug —
exactly the condition :func:`check_convergence` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .graph import causality_graph
from .history import HistoryRecorder

if TYPE_CHECKING:  # annotations only: the protocols are handed in
    from ..core.base import CausalProtocol

__all__ = ["ConvergenceReport", "check_convergence", "divergent_variables"]


@dataclass
class ConvergenceReport:
    """Outcome of a convergence analysis at quiescence."""

    #: var -> {write id or None} of final values across its replicas
    final_values: dict[int, set]
    #: variables whose replicas ended with different values
    divergent: list[int]
    #: divergences between causally ORDERED writes — always a bug
    illegitimate: list[str]

    @property
    def ok(self) -> bool:
        """True when any divergence is between concurrent writes only."""
        return not self.illegitimate

    @property
    def divergence_rate(self) -> float:
        """Fraction of written variables with divergent replicas."""
        written = [v for v, vals in self.final_values.items() if vals != {None}]
        if not written:
            return 0.0
        return len(self.divergent) / len(written)


def divergent_variables(protocols: Sequence["CausalProtocol"]) -> dict[int, set]:
    """Final write id per variable per replica, collapsed to sets.

    Keys every variable any site replicates; a value set with more than
    one element means the replicas disagree at quiescence.
    """
    finals: dict[int, set] = {}
    for proto in protocols:
        store = proto.ctx.store
        for var in store.variables:
            slot = store.read(var)
            finals.setdefault(var, set()).add(slot.write_id)
    return finals


def check_convergence(
    protocols: Sequence["CausalProtocol"],
    history: Optional[HistoryRecorder] = None,
) -> ConvergenceReport:
    """Analyze replica agreement at quiescence.

    With a recorded ``history``, divergent values are checked for
    causal concurrency: two causally ordered writes ending up as
    different replicas' final values is reported as illegitimate.
    """
    finals = divergent_variables(protocols)
    divergent = sorted(v for v, vals in finals.items() if len(vals) > 1)

    illegitimate: list[str] = []
    if history is not None and divergent:
        g = causality_graph(history).acyclic()
        for var in divergent:
            if None in finals[var]:
                # at quiescence every replica has applied every write to
                # its variable; an untouched replica next to written ones
                # is a missed apply, never legitimate concurrency
                illegitimate.append(
                    f"var {var}: some replica still holds ⊥ while others "
                    f"hold {sorted(w for w in finals[var] if w)}"
                )
            for a, b in combinations([w for w in finals[var] if w is not None], 2):
                ia, ib = g.where.get(a.as_tuple()), g.where.get(b.as_tuple())
                if ia is not None and ib is not None and (
                        g.precedes(ia, ib) or g.precedes(ib, ia)):
                    illegitimate.append(
                        f"var {var}: final values {a} and {b} are causally "
                        "ordered — replicas applying both must agree")
    return ConvergenceReport(
        final_values=finals, divergent=divergent, illegitimate=illegitimate
    )
