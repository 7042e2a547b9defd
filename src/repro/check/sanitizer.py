"""Runtime sanitizers: frozen-message transport and double-run diffing.

Two dynamic checks complement the AST lints, catching what static
analysis cannot prove:

* :class:`SanitizedNetwork` — an opt-in wrapper around
  :class:`repro.sim.network.Network` that *freezes* every message at
  send time (structural fingerprint over a deep snapshot) and verifies
  the fingerprint again at each delivery.  Any mutation of a message —
  or of metadata aliased into one, from any site — between send and
  delivery raises :class:`MessageMutationError` naming the sender,
  receiver, and message type.  Enable per run with
  ``SimulationConfig(sanitize=True)``.

* :func:`double_run` — the divergence detector: executes the same
  configuration twice under the same seed with a fresh
  :class:`~repro.obs.tracer.Tracer` each time and diffs the two event
  logs.  Identical logs certify the run bit-deterministic end to end
  (every send, delivery, activation, and crash at the same simulated
  time with the same attributes).  On divergence the report pinpoints
  the first differing event and reconstructs its causal chain from the
  tracer's parent links.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..core.log import PiggybackView
from ..obs.tracer import Trace, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import SimulationConfig
    from ..sim.network import Network

__all__ = [
    "MessageMutationError",
    "SanitizedNetwork",
    "fingerprint",
    "DivergenceReport",
    "double_run",
    "diff_traces",
    "set_divergence_test_hook",
]

#: cap on the causal chain reported for a diverging event
MAX_CHAIN = 20


# ----------------------------------------------------------------------
# structural fingerprinting
# ----------------------------------------------------------------------
def fingerprint(obj: object) -> str:
    """Order-insensitive structural hash of a message.

    Containers hash by content with sets/dicts canonically ordered, so
    the fingerprint is stable under hash-seed variation and under
    deep-copying — equal structure, equal fingerprint.  numpy arrays
    hash by dtype/shape/bytes.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h: "hashlib._Hash", obj: object) -> None:
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
        return
    if is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__name__}(".encode())
        for f in fields(obj):
            h.update(f.name.encode())
            h.update(b"=")
            _feed(h, getattr(obj, f.name))
        h.update(b");")
        return
    if isinstance(obj, PiggybackView):
        # a view is its flat sequence, rebuilt from the delta: the lazily
        # filled flat-cache slot (logically immutable, like the clocks'
        # tolist caches below) must not register as a mutation, while a
        # replaced delta still must
        obj = obj.materialise()
    if isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"];")
        return
    if isinstance(obj, (set, frozenset)):
        h.update(f"{type(obj).__name__}{{".encode())
        for digest in sorted(fingerprint(item) for item in obj):
            h.update(digest.encode())
        h.update(b"};")
        return
    if isinstance(obj, dict):
        h.update(b"dict{")
        entries = sorted(
            (fingerprint(k), fingerprint(v)) for k, v in obj.items()
        )
        for kd, vd in entries:
            h.update(kd.encode())
            h.update(b":")
            h.update(vd.encode())
        h.update(b"};")
        return
    tobytes = getattr(obj, "tobytes", None)
    if callable(tobytes):  # numpy arrays (and the clock classes' .m)
        dtype = getattr(obj, "dtype", "")
        shape = getattr(obj, "shape", "")
        h.update(f"nd:{dtype}:{shape}:".encode())
        h.update(tobytes())
        h.update(b";")
        return
    # MatrixClock (.m) / VectorClock (.v) wrap arrays; fingerprint the
    # array alone so their lazy tolist caches (populated on first hot-
    # path read, logically immutable) don't register as mutations
    inner = getattr(obj, "m", None)
    if inner is None:
        inner = getattr(obj, "v", None)
    if inner is not None and callable(getattr(inner, "tobytes", None)):
        h.update(f"clock:{type(obj).__name__}:".encode())
        _feed(h, inner)
        return
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        h.update(f"obj:{type(obj).__name__}(".encode())
        for name in slots:
            _feed(h, getattr(obj, name, None))
        h.update(b");")
        return
    state = getattr(obj, "__dict__", None)
    if state is not None:
        h.update(f"obj:{type(obj).__name__}(".encode())
        for key in sorted(state):
            h.update(key.encode())
            h.update(b"=")
            _feed(h, state[key])
        h.update(b");")
        return
    h.update(f"opaque:{type(obj).__name__}:{obj!r};".encode())


# ----------------------------------------------------------------------
# frozen-message network wrapper
# ----------------------------------------------------------------------
class MessageMutationError(AssertionError):
    """A message changed between send and delivery (cross-site aliasing)."""


class SanitizedNetwork:
    """Decorator around :class:`~repro.sim.network.Network`.

    Every message entering via :meth:`send` or :meth:`multicast` is
    fingerprinted (a shared multicast message once); every
    application-level delivery re-fingerprints and compares.  Unknown
    payloads (transport-internal packets: acks, heartbeats, sync
    probes) pass through unchecked — they never cross either.

    All other attributes delegate to the wrapped network, so the
    wrapper is a drop-in for every consumer (protocol contexts, the
    crash-recovery manager, the cluster facade).
    """

    def __init__(self, inner: "Network") -> None:
        self._inner = inner
        #: id(message) -> (strong ref, deep snapshot, fingerprint, src)
        self._frozen: dict[int, tuple[object, object, str, int]] = {}
        self.mutation_checks = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    # -- intercepted surface ------------------------------------------
    def send(self, src: int, dst: int, message: object, *,
             size_bytes: float = 0.0) -> Optional[float]:
        self._freeze(src, message)
        return self._inner.send(src, dst, message, size_bytes=size_bytes)

    def multicast(self, src: int, dests: Sequence[int], message: object, *,
                  size_bytes: float = 0.0) -> None:
        # defined, not left to __getattr__: forwarding would hand the
        # message to the inner network unfrozen and skip the check
        self._freeze(src, message)
        self._inner.multicast(src, dests, message, size_bytes=size_bytes)

    def _freeze(self, src: int, message: object) -> None:
        if id(message) not in self._frozen:
            self._frozen[id(message)] = (
                message, copy.deepcopy(message), fingerprint(message), src
            )

    def register(self, site: int,
                 receiver: Callable[[int, object], None]) -> None:
        def verifying_receiver(src: int, message: object) -> None:
            self.verify(src, site, message)
            receiver(src, message)

        self._inner.register(site, verifying_receiver)

    # -- verification --------------------------------------------------
    def verify(self, src: int, dst: int, message: object) -> None:
        entry = self._frozen.get(id(message))
        if entry is None:
            return  # not a sanitized application message
        _original, snapshot, frozen_fp, sent_by = entry
        self.mutation_checks += 1
        now_fp = fingerprint(message)
        if now_fp != frozen_fp:
            raise MessageMutationError(
                f"{type(message).__name__} sent by site {sent_by} was "
                f"mutated before delivery to site {dst} (from {src}): "
                f"fingerprint {frozen_fp[:12]} -> {now_fp[:12]}; "
                f"changed fields: {_changed_fields(snapshot, message)}. "
                "Some site aliases metadata captured into this message "
                "(Dests list / clock row / piggyback log) and mutated it "
                "after send."
            )


def _changed_fields(snapshot: object, current: object) -> str:
    """Name the dataclass fields whose structure drifted from the freeze."""
    if not (is_dataclass(snapshot) and type(snapshot) is type(current)):
        return "<whole object>"
    drifted = [
        f.name
        for f in fields(snapshot)
        if fingerprint(getattr(snapshot, f.name))
        != fingerprint(getattr(current, f.name))
    ]
    return ", ".join(drifted) if drifted else "<none identified>"


# ----------------------------------------------------------------------
# double-run divergence detector
# ----------------------------------------------------------------------
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


def _event_signature(ev: TraceEvent) -> str:
    """Canonical comparison key for one trace event."""
    return fingerprint((ev.id, ev.ts, ev.kind, ev.site, ev.parent, ev.attrs))


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


def double_run(
    config: "SimulationConfig",
    *,
    sanitize: bool = True,
) -> DivergenceReport:
    """Run ``config`` twice under the same seed and diff the event logs.

    The second run rebuilds everything from scratch (fresh simulator,
    network, RNG streams, workload generation) — shared state between
    the runs would defeat the point.  ``sanitize=True`` additionally
    routes both runs through :class:`SanitizedNetwork`, so a mutation
    is caught even when it happens to mutate identically in both runs.
    """
    from dataclasses import replace

    from ..experiments.runner import run_simulation

    base = replace(config, sanitize=sanitize) if sanitize else config
    tracer_a = Tracer()
    run_simulation(base, tracer=tracer_a)
    second = base if _SECOND_RUN_HOOK is None else _SECOND_RUN_HOOK(base)
    tracer_b = Tracer()
    run_simulation(second, tracer=tracer_b)
    return diff_traces(
        tracer_a.to_trace(), tracer_b.to_trace(), protocol=config.protocol
    )
