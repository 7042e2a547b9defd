"""Per-node JSONL histories and the merge the causal checker consumes.

Live nodes record exactly the events the simulator records — every
protocol interaction flows through the same
:class:`~repro.verify.history.HistoryRecorder` injected via
``ProtocolContext`` — and :class:`HistorySink` streams each new
:class:`~repro.verify.history.EventRecord` to an append-only JSONL file
in the one history encoding, :func:`~repro.verify.history.encode_events`.

:func:`merge_histories` concatenates per-node files *in site order* into
one recorder.  That is sufficient for
:func:`~repro.verify.causal_checker.check_causal_consistency`: the
checker derives program order and apply order per site (each node's file
preserves its own recording order) and the cross-site read-from relation
from write ids — it never compares raw timestamps across nodes, so the
unsynchronized per-node wall clocks are harmless.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..verify.history import (
    EventRecord,
    HistoryRecorder,
    decode_events,
    encode_events,
)

__all__ = [
    "HistorySink",
    "merge_histories",
    "merge_event_lists",
]


class HistorySink:
    """Streams a recorder's new events to an append-only JSONL file.

    The recorder stays the single source of truth (checkers can read it
    in-process); the sink just mirrors increments to disk so the history
    survives the node and CI can upload it as an artifact.
    """

    def __init__(self, recorder: HistoryRecorder, path: "str | Path") -> None:
        self.recorder = recorder
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._flushed = 0
        self._fh = self.path.open("w", encoding="utf-8")

    def flush(self) -> int:
        """Write every not-yet-mirrored event; returns how many."""
        events = self.recorder.events
        new = events[self._flushed:]
        if new:
            self._fh.write(encode_events(new))
            self._fh.flush()
            self._flushed = len(events)
        return len(new)

    def close(self) -> None:
        self.flush()
        self._fh.close()


def merge_event_lists(
    per_site: Sequence[Sequence[EventRecord]],
) -> HistoryRecorder:
    """One recorder from per-node event lists, concatenated in site order."""
    merged = HistoryRecorder()
    for events in per_site:
        merged.extend(events)
    return merged


def merge_histories(paths: Sequence["str | Path"]) -> HistoryRecorder:
    """Load per-node JSONL files (given in site order) into one recorder."""
    return merge_event_lists(
        [decode_events(Path(p).read_text(encoding="utf-8")) for p in paths]
    )
