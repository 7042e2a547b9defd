"""Causally-linked structured tracing for simulation runs.

The tracer records one event per interesting moment of a run — operation
start/finish, write issue, each message hop (send → fault-injected
transmission attempt → retransmit → deliver), and each buffered-update
activation — with parent links that follow *causality*, not wall order:

* a ``msg.send`` is parented to the operation (or activation) that was
  executing when the protocol sent it;
* ``msg.attempt`` / ``msg.retransmit`` / ``msg.deliver`` events are
  parented to their message's ``msg.send``;
* an ``sm.activate`` is parented to its message's ``msg.deliver`` and —
  when the update sat buffered — carries ``waited_on``: the send-event
  ids of the messages applied at that site while it waited, i.e. the
  exact messages its activation predicate was waiting for.

Walking those links backwards reconstructs the full causal chain of any
late activation (see :mod:`repro.obs.analyze`).

The tracer is *passive*: it never schedules events, samples an RNG, or
mutates protocol state, so a traced run is bit-for-bit the same
simulation as an untraced one — the ``tracer=None`` fast path in the
instrumented subsystems costs one ``is None`` test per hook and keeps
metrics byte-identical to the un-instrumented code (the same contract
``fault_plan=None`` gives the chaos transport).

Correlation is by payload identity *per destination*: protocols with
shared metadata snapshots (optP, Full-Track) multicast one message
object to many destinations, so the key is ``(id(payload), dst)``.  The
tracer holds a strong reference to every payload it has seen, which both
pins ``id`` uniqueness and keeps traced runs safe from id reuse.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Tracer", "TraceEvent", "Trace"]

#: cap on the ``waited_on`` list of one activation (the rest is counted)
MAX_WAITED_ON = 32


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record."""

    id: int
    ts: float
    kind: str
    site: int
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"id": self.id, "ts": self.ts, "kind": self.kind,
                     "site": self.site}
        if self.parent is not None:
            out["parent"] = self.parent
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TraceEvent":
        return cls(
            id=data["id"], ts=data["ts"], kind=data["kind"], site=data["site"],
            parent=data.get("parent"), attrs=data.get("attrs", {}),
        )


@dataclass
class Trace:
    """A finished (or loaded) trace: metadata + events."""

    meta: dict
    events: list[TraceEvent]

    def __len__(self) -> int:
        return len(self.events)

    def by_id(self) -> dict[int, TraceEvent]:
        return {ev.id: ev for ev in self.events}

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.kind == kind]


@dataclass(slots=True)
class _MsgState:
    """Correlation state for one in-flight message copy (src -> dst).

    Slotted: one per traced message copy, created on every send under
    tracing — no per-instance ``__dict__``.
    """

    payload: object  # strong ref: pins id(payload) for the run
    send_id: int
    src: int
    dst: int
    deliver_id: Optional[int] = None
    attempts: int = 0
    retransmits: int = 0


class Tracer:
    """Collects :class:`TraceEvent` records, the trace's only store.

    Thread through ``run_simulation(..., tracer=...)`` or
    ``CausalCluster(..., tracer=...)``; export with
    :func:`repro.obs.sinks.write_jsonl` /
    :func:`repro.obs.sinks.write_chrome`.
    """

    def __init__(self, *, meta: Optional[dict] = None) -> None:
        self.events: list[TraceEvent] = []
        self.meta: dict = dict(meta or {})
        self._next_id = 0
        self._ctx: list[int] = []  # event-id stack of the executing context
        self._msgs: dict[tuple[int, int], _MsgState] = {}
        # per-site apply history for waited_on reconstruction
        self._apply_times: dict[int, list[float]] = {}
        self._apply_sends: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _emit(self, kind: str, site: int, ts: float,
              parent: Optional[int] = None, **attrs: Any) -> TraceEvent:
        ev = TraceEvent(id=self._next_id, ts=ts, kind=kind, site=site,
                        parent=parent, attrs=attrs)
        self._next_id += 1
        self.events.append(ev)
        return ev

    def push(self, event_id: int) -> None:
        """Enter a causal context (subsequent sends parent to it)."""
        self._ctx.append(event_id)

    def pop(self) -> None:
        self._ctx.pop()

    def current(self) -> Optional[int]:
        return self._ctx[-1] if self._ctx else None

    def to_trace(self) -> Trace:
        return Trace(meta=dict(self.meta), events=self.events)

    # ------------------------------------------------------------------
    # operation spans (driven by sim.process.Site)
    # ------------------------------------------------------------------
    def op_start(self, site: int, ts: float, *, write: bool, var: int,
                 index: int) -> int:
        """An application operation begins; enters its causal context."""
        ev = self._emit("op.write" if write else "op.read", site, ts,
                        parent=self.current(), var=var, index=index)
        self.push(ev.id)
        return ev.id

    def op_detach(self) -> None:
        """The synchronous part of the operation returned; leave its
        context (an async remote read completes later via op_finish)."""
        self.pop()

    def op_finish(self, event_id: int, ts: float,
                  remote: Optional[bool] = None) -> None:
        """The operation completed (possibly long after op_detach)."""
        ev = self.events[event_id]
        ev.attrs["end_ts"] = ts
        if remote is not None:
            ev.attrs["remote"] = remote

    # ------------------------------------------------------------------
    # protocol-core hooks
    # ------------------------------------------------------------------
    def write_issued(self, site: int, ts: float, *, writer: int, clock: int,
                     var: int, log_size: Optional[int] = None) -> int:
        """A write was assigned its id (before the SM multicast)."""
        attrs: dict = {"writer": writer, "clock": clock, "var": var}
        if log_size is not None:
            attrs["log_size"] = log_size
        ev = self._emit("write.issue", site, ts, parent=self.current(), **attrs)
        return ev.id

    # ------------------------------------------------------------------
    # message hops
    # ------------------------------------------------------------------
    def msg_send(self, src: int, dst: int, payload: object, *, ts: float,
                 kind: str, size: float) -> int:
        """A protocol message enters the network (called before send)."""
        attrs: dict = {"src": src, "dst": dst, "msg": kind, "size": size}
        wid = getattr(payload, "write_id", None)
        if wid is not None:
            attrs["writer"] = wid.site
            attrs["clock"] = wid.clock
        var = getattr(payload, "var", None)
        if var is not None:
            attrs["var"] = var
        ev = self._emit("msg.send", src, ts, parent=self.current(), **attrs)
        self._msgs[(id(payload), dst)] = _MsgState(
            payload=payload, send_id=ev.id, src=src, dst=dst
        )
        return ev.id

    def _state(self, payload: object, dst: int) -> Optional[_MsgState]:
        return self._msgs.get((id(payload), dst))

    def msg_attempt(self, src: int, dst: int, payload: object, *, ts: float,
                    dropped: bool, partition: bool = False,
                    spike_ms: float = 0.0, duplicates: int = 0) -> None:
        """One physical transmission attempt on the lossy chaos path."""
        state = self._state(payload, dst)
        if state is None:
            return  # transport-internal packet (e.g. an ack)
        state.attempts += 1
        attrs: dict = {"attempt": state.attempts,
                       "outcome": "dropped" if dropped else "sent"}
        if partition:
            attrs["partition"] = True
        if spike_ms:
            attrs["spike_ms"] = spike_ms
        if duplicates:
            attrs["duplicates"] = duplicates
        self._emit("msg.attempt", src, ts, parent=state.send_id, **attrs)

    def msg_retransmit(self, src: int, dst: int, payload: object, *,
                       ts: float) -> None:
        """The reliable layer's timer (or heal flush) resent a packet."""
        state = self._state(payload, dst)
        if state is None:
            return
        state.retransmits += 1
        self._emit("msg.retransmit", src, ts, parent=state.send_id,
                   n=state.retransmits)

    def msg_deliver(self, src: int, dst: int, payload: object, *,
                    ts: float) -> Optional[int]:
        """The message reached the application at ``dst``.

        Returns the deliver event id (the causal context for whatever
        the receiving protocol does next), or None for an unknown
        payload (nothing sent through a traced ``_send``).
        """
        state = self._state(payload, dst)
        if state is None:
            return None
        ev = self._emit("msg.deliver", dst, ts, parent=state.send_id,
                        src=src, latency_ms=ts - self.events[state.send_id].ts)
        if state.deliver_id is None:
            state.deliver_id = ev.id
        return ev.id

    def deliver_id_of(self, payload: object, dst: int) -> Optional[int]:
        state = self._state(payload, dst)
        return state.deliver_id if state is not None else None

    # ------------------------------------------------------------------
    # buffered-message resolution (driven by core.base._drain)
    # ------------------------------------------------------------------
    def sm_activate(self, site: int, payload: object, *, ts: float,
                    arrived: float) -> int:
        """A (possibly buffered) update passed its activation predicate.

        Emits ``sm.activate`` parented to the update's deliver event and
        enters its causal context; close with :meth:`pop`.
        """
        waited = ts - arrived
        attrs: dict = {"arrived": arrived, "waited_ms": waited}
        wid = getattr(payload, "write_id", None)
        if wid is not None:
            attrs["writer"] = wid.site
            attrs["clock"] = wid.clock
        var = getattr(payload, "var", None)
        if var is not None:
            attrs["var"] = var
        issued = getattr(payload, "issued_at", None)
        if issued is not None:
            attrs["visibility_ms"] = ts - issued
        if waited > 0:
            waited_on = self._applied_since(site, arrived)
            attrs["waited_on"] = waited_on[:MAX_WAITED_ON]
            if len(waited_on) > MAX_WAITED_ON:
                attrs["waited_on_truncated"] = len(waited_on) - MAX_WAITED_ON
        ev = self._emit("sm.activate", site, ts,
                        parent=self.deliver_id_of(payload, site), **attrs)
        self._note_applied(site, ts, self._send_id_of(payload, site))
        self.push(ev.id)
        return ev.id

    def gated_resolved(self, kind: str, site: int, payload: object, *,
                       ts: float, arrived: float) -> int:
        """An FM was served or an RM completed after its gate opened.

        ``kind`` is ``"fm.serve"`` or ``"rm.complete"``; enters the
        event's causal context (close with :meth:`pop`).
        """
        ev = self._emit(kind, site, ts,
                        parent=self.deliver_id_of(payload, site),
                        waited_ms=ts - arrived)
        self.push(ev.id)
        return ev.id

    def _send_id_of(self, payload: object, dst: int) -> Optional[int]:
        state = self._state(payload, dst)
        return state.send_id if state is not None else None

    def _note_applied(self, site: int, ts: float,
                      send_id: Optional[int]) -> None:
        if send_id is None:
            return
        self._apply_times.setdefault(site, []).append(ts)
        self._apply_sends.setdefault(site, []).append(send_id)

    def _applied_since(self, site: int, t0: float) -> list[int]:
        times = self._apply_times.get(site)
        if not times:
            return []
        i = bisect_left(times, t0)
        return self._apply_sends[site][i:]

    # ------------------------------------------------------------------
    # crash-recovery lifecycle (driven by repro.sim.crash)
    # ------------------------------------------------------------------
    def site_crash(self, site: int, ts: float) -> int:
        """``site`` lost its volatile state (process crash)."""
        return self._emit("site.crash", site, ts).id

    def site_restore(self, site: int, ts: float, *, downtime_ms: float,
                     wal_replayed: int) -> int:
        """``site`` reinstalled its checkpoint and replayed its WAL."""
        return self._emit("site.restore", site, ts,
                          downtime_ms=downtime_ms,
                          wal_replayed=wal_replayed).id

    def site_catchup(self, site: int, ts: float, *, duration_ms: float,
                     rounds: int, forced: bool = False) -> int:
        """``site`` finished anti-entropy catch-up and resumed serving."""
        attrs: dict = {"duration_ms": duration_ms, "rounds": rounds}
        if forced:
            attrs["forced"] = True
        return self._emit("site.catchup", site, ts, **attrs).id

    def detector_suspect(self, observer: int, subject: int, ts: float, *,
                         false_positive: bool = False) -> int:
        """``observer``'s failure detector started suspecting ``subject``."""
        attrs: dict = {"subject": subject}
        if false_positive:
            attrs["false_positive"] = True
        return self._emit("fd.suspect", observer, ts, **attrs).id

    def detector_alive(self, observer: int, subject: int, ts: float) -> int:
        """``observer`` heard from a suspected ``subject`` again."""
        return self._emit("fd.alive", observer, ts, subject=subject).id

    def __repr__(self) -> str:
        return f"<Tracer events={len(self.events)} messages={len(self._msgs)}>"
