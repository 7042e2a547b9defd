"""The double-run divergence detector.

:func:`double_run` executes the same configuration twice under the same
seed with a fresh :class:`~repro.obs.tracer.Tracer` each time and diffs
the two event logs.  Identical logs certify the run bit-deterministic
end to end (every send, delivery, activation, and crash at the same
simulated time with the same attributes).  On divergence the report
pinpoints the first differing event and reconstructs its causal chain
from the tracer's parent links.

That a sent message never changes is a different invariant, and it
holds by construction (``docs/protocols.md``, "What a sent message
holds"): a mutation raises where it happens, in either run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..obs.tracer import Trace, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import SimulationConfig

__all__ = [
    "DivergenceReport",
    "double_run",
    "diff_traces",
    "set_divergence_test_hook",
]

#: cap on the causal chain reported for a diverging event
MAX_CHAIN = 20


#: test-only hook: transforms the config of the *second* run, injecting
#: seeded nondeterminism so tests can watch the detector catch it
_SECOND_RUN_HOOK: Optional[Callable[["SimulationConfig"], "SimulationConfig"]] = None


def set_divergence_test_hook(
    hook: Optional[Callable[["SimulationConfig"], "SimulationConfig"]],
) -> None:
    """Install (or clear, with None) the second-run config mutator.

    Test-only: production callers must never set this — the detector's
    whole point is that both runs use the *same* configuration.
    """
    global _SECOND_RUN_HOOK
    _SECOND_RUN_HOOK = hook


@dataclass(frozen=True)
class EventDiff:
    """The first diverging event pair, field by field."""

    index: int
    first: Optional[dict]
    second: Optional[dict]
    changed_fields: tuple[str, ...]


@dataclass
class DivergenceReport:
    """Outcome of a double run: identical, or first divergence + chain."""

    protocol: str
    identical: bool
    events_a: int
    events_b: int
    divergence: Optional[EventDiff] = None
    #: causal chain (parent links) of the diverging event, root first
    causal_chain: tuple[dict, ...] = ()

    def format(self) -> str:
        if self.identical:
            return (
                f"{self.protocol}: deterministic — {self.events_a} events "
                "bit-identical across both runs"
            )
        lines = [
            f"{self.protocol}: DIVERGED "
            f"(run A: {self.events_a} events, run B: {self.events_b})",
        ]
        d = self.divergence
        if d is not None:
            lines.append(f"  first divergence at event #{d.index}:")
            lines.append(f"    run A: {_fmt_event(d.first)}")
            lines.append(f"    run B: {_fmt_event(d.second)}")
            if d.changed_fields:
                lines.append(f"    changed: {', '.join(d.changed_fields)}")
        if self.causal_chain:
            lines.append("  causal chain of the diverging event (root first):")
            for ev in self.causal_chain:
                lines.append(f"    -> {_fmt_event(ev)}")
        return "\n".join(lines)


def _fmt_event(ev: Optional[dict]) -> str:
    if ev is None:
        return "<no event — run ended early>"
    attrs = ev.get("attrs", {})
    shown = {k: v for k, v in sorted(attrs.items()) if k != "waited_on"}
    return (
        f"[{ev['id']}] t={ev['ts']:.3f} {ev['kind']} site={ev['site']} {shown}"
    )


def _event_signature(ev: TraceEvent) -> tuple:
    """Comparison key for one trace event (its attrs are plain data)."""
    return (ev.id, ev.ts, ev.kind, ev.site, ev.parent, ev.attrs)


def diff_traces(a: Trace, b: Trace, *, protocol: str = "?") -> DivergenceReport:
    """Compare two event logs; report the first diverging event."""
    n = min(len(a.events), len(b.events))
    for i in range(n):
        ea, eb = a.events[i], b.events[i]
        if _event_signature(ea) != _event_signature(eb):
            return _report(protocol, a, b, i, ea, eb)
    if len(a.events) != len(b.events):
        i = n
        ea = a.events[i] if i < len(a.events) else None
        eb = b.events[i] if i < len(b.events) else None
        return _report(protocol, a, b, i, ea, eb)
    return DivergenceReport(
        protocol=protocol, identical=True,
        events_a=len(a.events), events_b=len(b.events),
    )


def _report(
    protocol: str,
    a: Trace,
    b: Trace,
    index: int,
    ea: Optional[TraceEvent],
    eb: Optional[TraceEvent],
) -> DivergenceReport:
    changed: list[str] = []
    if ea is not None and eb is not None:
        for attr in ("ts", "kind", "site", "parent"):
            if getattr(ea, attr) != getattr(eb, attr):
                changed.append(attr)
        keys = set(ea.attrs) | set(eb.attrs)
        for key in sorted(keys):
            if ea.attrs.get(key) != eb.attrs.get(key):
                changed.append(f"attrs.{key}")
    # chain from run B when it has the event (B is the diverging rerun),
    # else from run A
    chain_src = b if eb is not None else a
    chain_ev = eb if eb is not None else ea
    chain = _causal_chain(chain_src, chain_ev) if chain_ev is not None else ()
    return DivergenceReport(
        protocol=protocol,
        identical=False,
        events_a=len(a.events),
        events_b=len(b.events),
        divergence=EventDiff(
            index=index,
            first=ea.to_json() if ea is not None else None,
            second=eb.to_json() if eb is not None else None,
            changed_fields=tuple(changed),
        ),
        causal_chain=chain,
    )


def _causal_chain(trace: Trace, ev: TraceEvent) -> tuple[dict, ...]:
    by_id = trace.by_id()
    chain: list[dict] = []
    cur: Optional[TraceEvent] = ev
    while cur is not None and len(chain) < MAX_CHAIN:
        chain.append(cur.to_json())
        cur = by_id.get(cur.parent) if cur.parent is not None else None
    chain.reverse()
    return tuple(chain)


def double_run(config: "SimulationConfig") -> DivergenceReport:
    """Run ``config`` twice under the same seed and diff the event logs.

    The second run rebuilds everything from scratch (fresh simulator,
    network, RNG streams, workload generation) — shared state between
    the runs would defeat the point.
    """
    from ..experiments.runner import run_simulation

    tracer_a = Tracer()
    run_simulation(config, tracer=tracer_a)
    second = (config if _SECOND_RUN_HOOK is None
              else _SECOND_RUN_HOOK(config))
    tracer_b = Tracer()
    run_simulation(second, tracer=tracer_b)
    return diff_traces(
        tracer_a.to_trace(), tracer_b.to_trace(), protocol=config.protocol
    )
