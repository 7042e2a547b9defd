"""Execution-history recording.

The verifier needs three relations out of a run, and a history holds
the three kinds of event that carry them and nothing else:

* **program order** — per-site sequence of read/write operations
  (``WRITE_OP`` / ``READ_OP``);
* **read-from order** — which write each read returned (via write ids);
* **apply order** — per-site sequence in which update messages were
  locally applied (``APPLY``; to check the activation predicates did
  their job).

:class:`HistoryRecorder` accumulates
:class:`~repro.sim.events.EventRecord` rows for these; per-message
events (sends, fetches, replies) are the tracer's (:mod:`repro.obs`),
not the history's.  Recording is optional (``enabled=False`` turns
every method into a no-op) so large benchmark runs pay nothing for it.

:func:`encode_events` / :func:`decode_events` are the one JSONL form of
a history — one sorted-key ``as_dict`` object per line — shared by
every file and HTTP body that carries one; callers do the I/O.
:func:`decode_events` skips the lines of the per-message kinds older
files still hold, so such a file loads and checks as the history of
its kept events.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from ..memory.store import WriteId
from ..sim.events import EventKind, EventRecord

__all__ = ["HistoryRecorder", "encode_events", "decode_events"]


def encode_events(events: Iterable[EventRecord]) -> str:
    """The JSONL text of an event sequence, one event per line."""
    return "".join(
        json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in events
    )


#: kinds a history no longer records; :func:`decode_events` skips them
_RETIRED_KINDS = frozenset(
    {"send", "fetch", "receipt", "remote_return", "return"})


def decode_events(text: str) -> list[EventRecord]:
    """Parse JSONL history text (inverse of :func:`encode_events`; key
    order and blank lines do not matter, lines of a retired kind are
    skipped)."""
    rows = (json.loads(line) for line in text.splitlines() if line.strip())
    return [EventRecord.from_dict(row) for row in rows
            if row["kind"] not in _RETIRED_KINDS]


class HistoryRecorder:
    """Accumulates the observable events of one simulation run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
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
        if not self.enabled:
            return
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
        if not self.enabled:
            return
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
        if not self.enabled:
            return
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

    def operations(self, site: Optional[int] = None) -> list[EventRecord]:
        """Read/write operations, in recording (== completion-time) order."""
        ops = [
            e
            for e in self.events
            if e.kind in (EventKind.WRITE_OP, EventKind.READ_OP)
            and (site is None or e.site == site)
        ]
        return ops

    def writes(self) -> list[EventRecord]:
        return self.of_kind(EventKind.WRITE_OP)

    def reads(self) -> list[EventRecord]:
        return self.of_kind(EventKind.READ_OP)

    def extend(self, events: Iterable[EventRecord]) -> None:
        if self.enabled:
            self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)
