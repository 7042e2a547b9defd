"""Event records of an execution history.

Causal memory is defined by program order, read-from order and each
site's apply order, so a history keeps the three kinds of event the
checkers read:

* ``write_op`` / ``read_op`` — a completed operation of an application
  process (program order; a read's ``write_id`` is its read-from edge),
* ``apply`` — local application of a write's value at a site.

Of Section II-B's six event kinds, the per-message ones (``send``,
``fetch``, ``receipt``, ``remote_return``, ``return``) are no part of a
history: the tracer (:mod:`repro.obs`) records every message.  These
records are not required for the protocols to function; they form the
execution trace consumed by :mod:`repro.verify` (causal consistency
checking) and by :mod:`repro.workload.traces` (export/replay).  Keeping
them as plain frozen dataclasses makes them cheap to record and
trivially serializable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["EventKind", "EventRecord"]


class EventKind(enum.Enum):
    """The operation markers (program and read-from order) and the
    apply event (apply order)."""

    APPLY = "apply"
    WRITE_OP = "write_op"
    READ_OP = "read_op"


@dataclass(frozen=True, slots=True)
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
        ignored."""
        wid = data.get("write_id")
        dests = data.get("dests")
        return EventRecord(
            kind=EventKind(data["kind"]),
            time=float(data["time"]),
            site=int(data["site"]),
            var=data.get("var"),
            value=data.get("value"),
            write_id=tuple(wid) if wid is not None else None,
            op_index=data.get("op_index"),
            detail=data.get("detail", ""),
            dests=tuple(dests) if dests is not None else None,
        )
