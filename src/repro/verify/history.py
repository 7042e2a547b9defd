"""Execution histories: their records, their recorder, their JSONL form.

Causal memory is defined by program order, read-from order and each
site's apply order, and a history holds the three kinds of event that
carry them and nothing else:

* **program order** — per-site sequence of read/write operations
  (``WRITE_OP`` / ``READ_OP``);
* **read-from order** — which write each read returned (a read's
  ``write_id``);
* **apply order** — per-site sequence in which update messages were
  locally applied (``APPLY``; to check the activation predicates did
  their job).

Of Section II-B's six event kinds, the per-message ones (``send``,
``fetch``, ``receipt``, ``remote_return``, ``return``) are no part of a
history: the tracer (:mod:`repro.obs`) records every message.

:class:`EventKind` and :class:`EventRecord` are the record types,
frozen dataclasses cheap to record and trivially serializable.
:class:`HistoryRecorder` accumulates them; it is handed to the cores
only when a run records its history (``ProtocolContext.history`` is
``None`` otherwise), so large benchmark runs pay nothing for it.

:func:`encode_events` / :func:`decode_events` are the one JSONL form of
a history — one sorted-key ``as_dict`` object per line — shared by
every file and HTTP body that carries one; callers do the I/O.
:func:`decode_events` skips the lines of the per-message kinds older
files still hold, so such a file loads and checks as the history of
its kept events, and rejects any other malformed line with a
``ValueError`` naming it: the file or body may come from anywhere.
"""

from __future__ import annotations

import enum
import json
import math
from typing import Iterable, Optional

from ..memory.store import WriteId
from ..memory.value import value_type

__all__ = [
    "EventKind",
    "EventRecord",
    "HistoryRecorder",
    "encode_events",
    "decode_events",
]


class EventKind(enum.Enum):
    """The operation markers (program and read-from order) and the
    apply event (apply order)."""

    APPLY = "apply"
    WRITE_OP = "write_op"
    READ_OP = "read_op"


#: a tuple, not a set: an unhashable JSON value is compared, not hashed
_KINDS = tuple(kind.value for kind in EventKind)
_INT64 = 2**63


def _int(value: object, low: int) -> bool:
    """``value`` is an int (not a bool) in ``[low, 2**63)``."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and low <= value < _INT64)


@value_type
class EventRecord:
    """One timestamped event in the execution trace.

    ``write_id`` identifies a write operation globally as
    ``(writer site, writer local clock)``; reads carry the ``write_id`` of
    the write whose value they returned (``None`` for the initial value
    |bot|), which materializes the read-from order for the checker.
    """

    kind: EventKind
    time: float
    site: int
    var: Optional[int] = None
    value: object = None
    write_id: Optional[tuple[int, int]] = None
    op_index: Optional[int] = None
    detail: str = ""
    #: destination site set of a write (WRITE_OP only).  Recorded at
    #: write time because under elastic membership the placement later
    #: in the run may disagree with the placement the write actually
    #: used — the checker's apply-order condition needs the real one.
    dests: Optional[tuple[int, ...]] = None

    def as_dict(self) -> dict:
        """Plain-dict view used by the JSON trace exporter."""
        out = {
            "kind": self.kind.value,
            "time": self.time,
            "site": self.site,
            "var": self.var,
            "value": self.value,
            "write_id": list(self.write_id) if self.write_id is not None else None,
            "op_index": self.op_index,
            "detail": self.detail,
        }
        # omitted when absent so pre-membership trace files stay stable
        if self.dests is not None:
            out["dests"] = list(self.dests)
        return out

    @staticmethod
    def from_dict(data: dict) -> "EventRecord":
        """Inverse of :meth:`as_dict` (trace replay); a ``"peer"`` key,
        written before the history dropped its per-message events, is
        ignored.  A field the checker could not read raises ``ValueError``:
        sites, variables and destinations are int64 indexes, a write id
        is ``[site, clock >= 1]`` (an apply's is not null) and the time
        is a finite number."""
        if not isinstance(data, dict):
            raise ValueError(f"an event is a JSON object, not {data!r}")
        kind, time, site, var, wid, dests = (data.get(key) for key in (
            "kind", "time", "site", "var", "write_id", "dests"))
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if not (_int(time, -_INT64) or isinstance(time, float) and math.isfinite(time)):
            raise ValueError(f"time {time!r} is not a finite number")
        if not _int(site, 0):
            raise ValueError(f"site {site!r} is not a site index")
        if not (var is None or _int(var, 0)):
            raise ValueError(f"var {var!r} is not a variable index")
        if not (wid is None or isinstance(wid, list) and len(wid) == 2
                and _int(wid[0], 0) and _int(wid[1], 1)):
            raise ValueError(f"write id {wid!r} is not [site, clock >= 1]")
        if kind == "apply" and wid is None:
            raise ValueError("an apply names no write id")
        if not (dests is None or isinstance(dests, list)
                and all(_int(d, 0) for d in dests)):
            raise ValueError(f"dests {dests!r} is not a list of sites")
        return EventRecord(
            kind=EventKind(kind),
            time=float(time),
            site=site,
            var=var,
            value=data.get("value"),
            write_id=tuple(wid) if wid is not None else None,
            op_index=data.get("op_index"),
            detail=data.get("detail", ""),
            dests=tuple(dests) if dests is not None else None,
        )


def encode_events(events: Iterable[EventRecord]) -> str:
    """The JSONL text of an event sequence, one event per line."""
    return "".join(
        json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in events
    )


#: kinds a history no longer records; :func:`decode_events` skips them
_RETIRED_KINDS = ("send", "fetch", "receipt", "remote_return", "return")


def decode_events(text: str) -> list[EventRecord]:
    """Parse JSONL history text (inverse of :func:`encode_events`; key
    order and blank lines do not matter, lines of a retired kind are
    skipped); a malformed line raises ``ValueError("line N: ...")``."""
    events = []
    for n, line in enumerate(text.splitlines(), 1):
        try:
            row = json.loads(line) if line.strip() else None
            if row is not None and not (
                    isinstance(row, dict) and row.get("kind") in _RETIRED_KINDS):
                events.append(EventRecord.from_dict(row))
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    return events


class HistoryRecorder:
    """Accumulates the observable events of one simulation run."""

    def __init__(self) -> None:
        self.events: list[EventRecord] = []

    # ------------------------------------------------------------------
    def record_write_op(
        self,
        *,
        time: float,
        site: int,
        var: int,
        value: object,
        write_id: WriteId,
        op_index: Optional[int] = None,
        dests: Optional[Iterable[int]] = None,
    ) -> None:
        self.events.append(
            EventRecord(
                kind=EventKind.WRITE_OP,
                time=time,
                site=site,
                var=var,
                value=value,
                write_id=write_id.as_tuple(),
                op_index=op_index,
                dests=tuple(sorted(dests)) if dests is not None else None,
            )
        )

    def record_read_op(
        self,
        *,
        time: float,
        site: int,
        var: int,
        value: object,
        write_id: Optional[WriteId],
        op_index: Optional[int] = None,
        remote: bool = False,
    ) -> None:
        self.events.append(
            EventRecord(
                kind=EventKind.READ_OP,
                time=time,
                site=site,
                var=var,
                value=value,
                write_id=write_id.as_tuple() if write_id is not None else None,
                op_index=op_index,
                detail="remote" if remote else "local",
            )
        )

    def record_apply(
        self,
        *,
        time: float,
        site: int,
        var: int,
        write_id: WriteId,
    ) -> None:
        self.events.append(
            EventRecord(
                kind=EventKind.APPLY,
                time=time,
                site=site,
                var=var,
                write_id=write_id.as_tuple(),
            )
        )

    # ------------------------------------------------------------------
    # views used by the checker
    # ------------------------------------------------------------------
    def of_kind(self, kind: EventKind) -> list[EventRecord]:
        return [e for e in self.events if e.kind is kind]

    def operations(self) -> list[EventRecord]:
        """Read/write operations, in recording (== completion-time) order."""
        return [e for e in self.events
                if e.kind in (EventKind.WRITE_OP, EventKind.READ_OP)]

    def writes(self) -> list[EventRecord]:
        return self.of_kind(EventKind.WRITE_OP)

    def extend(self, events: Iterable[EventRecord]) -> None:
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)
