"""Metadata-byte ledger: where a run's piggyback bytes went, by component.

The paper's Tables II/III report one number per protocol — total metadata
bytes.  Every sent message is booked exactly once, in its sender's slot
of the :class:`~repro.metrics.collector.MetricsCollector`
(``[count, priced bytes, summed log / requirement length]`` per protocol,
kind, site, message type and clock width — see
:meth:`~repro.core.base.CausalProtocol._send`).  The collector's own
tallies sum those slots into the paper's numbers; the ledger reads the
*same* slots and splits the same bytes into the *components* named by
the message type's row of the price table
(:data:`repro.core.messages.PRICE_TABLE`) — the very rows
``metadata_size`` prices with:

========================  =====================================================
component                 meaning
========================  =====================================================
``envelope``              per-message framing / serialization headers
``var_id``                the variable id field
``value``                 the payload value slot
``site_id``               the writer-site field (Opt-Track family)
``clock``                 the writer-clock field (Opt-Track family)
``clock_entries``         matrix (Full-Track) / vector (optP) clock cells
``log_records``           Opt-Track KS-log per-record overhead
``dest_ids``              Opt-Track per-destination ids inside log records
``tuple_entries``         Opt-Track-CRP (site, clock) 2-tuples
``fm_base``               the constant fetch-request body
``fm_requirements``       (writer, threshold) gating pairs on a fetch
``opaque``                any message type the price table does not list
========================  =====================================================

Every decomposition is linear in a slot's three sums, so it is computed
from them when a report is asked for — nothing in this module runs per
message, and a ledger can be put over any collector: a simulator run's
(``registry.ledger``) or a live node's (``MetadataLedger(core.collector)``).
Cells are keyed by protocol x message kind x site, in the collector's two
windows: ``lifetime`` (every send) and ``measured`` (after the warm-up
gate opened).  With one writer, "ledger total == collector total" holds
by construction, and formula and split come from one row; what
:meth:`MetadataLedger.crosscheck` still checks is that each slot's
components **sum exactly** to the bytes ``message.metadata_size()``
priced at send time — i.e. it catches slot-booking faults, a slot whose
count, summed length or clock width does not explain its bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..core.messages import PRICE_TABLE, Breakdown, accounting_shape
from ..metrics.collector import MessageKind, MetricsCollector

__all__ = ["MetadataLedger", "LedgerCell", "decompose_message"]


def _sum_breakdown(t: Optional[type], n: int, count: int, length: int,
                   nbytes: int) -> Breakdown:
    """Component bytes for ``count`` messages of type ``t`` at once: its
    :data:`~repro.core.messages.PRICE_TABLE` row's split (see
    :meth:`~repro.core.messages.PriceRow.breakdown`), or one ``opaque``
    component for a type the table does not list."""
    row = PRICE_TABLE.get(t)  # type: ignore[arg-type]
    if row is None:
        return (("opaque", nbytes),)
    return row.breakdown(count, length, nbytes, n)


def decompose_message(message: object) -> Breakdown:
    """Per-component byte breakdown of one message.

    Invariant: the component bytes sum to ``message.metadata_size()``
    exactly.  Unknown message types fall back to a single ``opaque``
    component priced by their own ``metadata_size``, preserving the
    invariant for protocols added later.
    """
    length_of, width = accounting_shape(message)
    return _sum_breakdown(
        type(message), width, 1,
        len(length_of(message)) if length_of is not None else 0,
        message.metadata_size())  # type: ignore[attr-defined]


class LedgerCell:
    """Counts + per-component bytes for one (protocol, kind, site) key."""

    __slots__ = ("count", "bytes", "components")

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0
        self.components: dict[str, int] = {}

    def add(self, count: int, nbytes: int,
            components: Iterable[tuple[str, int]]) -> None:
        self.count += count
        self.bytes += nbytes
        parts = self.components
        for name, b in components:
            if b:
                parts[name] = parts.get(name, 0) + b

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "bytes": self.bytes,
            "components": dict(sorted(self.components.items())),
        }


CellKey = tuple[str, str, int]
_WINDOWS = ("lifetime", "measured")


class MetadataLedger:
    """Per-component view of a collector's message slots.

    Holds no counts of its own: each aggregation reads the collector's
    slots as they stand (so a mid-run export sees a consistent cut) and
    expands them with :func:`_sum_breakdown`.  The one exception is a
    ledger rebuilt by :meth:`from_dict`, which serves the dumped cells.
    """

    def __init__(self, collector: Optional[MetricsCollector] = None) -> None:
        self.collector = collector if collector is not None else MetricsCollector()
        #: both windows as loaded by :meth:`from_dict`, served in place
        #: of the (empty) collector's
        self._loaded: Optional[dict[str, dict[CellKey, LedgerCell]]] = None

    # -- expansion -----------------------------------------------------
    def _slots(self, window: str
               ) -> Iterator[tuple[CellKey, int, int, Breakdown]]:
        """``(cell key, count, priced bytes, components)`` per collector
        slot booked in ``window``."""
        for kind in MessageKind:
            for key, (count, nbytes, length) in self.collector.message_slots(
                    kind, measured=window == "measured"):
                if not count:
                    continue  # nothing booked inside the window
                proto, site, t, width = key
                yield ((proto, kind.value, site), count, nbytes,
                       _sum_breakdown(t, width, count, length, nbytes))

    def _window(self, window: str) -> dict[CellKey, LedgerCell]:
        if window not in _WINDOWS:
            raise ValueError(f"unknown window {window!r}")
        if self._loaded is not None:
            return self._loaded[window]
        cells: dict[CellKey, LedgerCell] = {}
        for key, count, nbytes, comps in self._slots(window):
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = LedgerCell()
            cell.add(count, nbytes, comps)
        return cells

    # -- aggregation ---------------------------------------------------
    @property
    def lifetime(self) -> dict[CellKey, LedgerCell]:
        return self._window("lifetime")

    @property
    def measured(self) -> dict[CellKey, LedgerCell]:
        """Cells of the measured window ({} before it opens)."""
        return self._window("measured")

    def total_bytes(self, kind: Optional[str] = None,
                    window: str = "measured") -> int:
        cells = self._window(window)
        return sum(c.bytes for (_, k, _), c in cells.items()
                   if kind is None or k == kind)

    def total_count(self, kind: Optional[str] = None,
                    window: str = "measured") -> int:
        cells = self._window(window)
        return sum(c.count for (_, k, _), c in cells.items()
                   if kind is None or k == kind)

    def by_protocol_kind(self, window: str = "measured") -> dict:
        """{(protocol, kind): {"count", "bytes", "components"}} summed
        over sites, keys sorted for deterministic iteration."""
        out: dict[tuple[str, str], LedgerCell] = {}
        for (proto, kind, _site), cell in sorted(self._window(window).items()):
            agg = out.get((proto, kind))
            if agg is None:
                agg = out[(proto, kind)] = LedgerCell()
            agg.add(cell.count, cell.bytes, cell.components.items())
        return {k: out[k] for k in sorted(out)}

    def as_dict(self) -> dict:
        """Deterministic JSON-ready dump of both windows, plus the
        collector's per-site ack / retransmission wire bytes (transport
        infrastructure, not piggyback metadata — they ride along so a
        soak run's byte tallies can be summed from one dump)."""
        out: dict = {}
        for window in _WINDOWS:
            rows = []
            for (proto, kind, site), cell in sorted(self._window(window).items()):
                row = {"protocol": proto, "kind": kind, "site": site}
                row.update(cell.as_dict())
                rows.append(row)
            out[window] = rows
        out["transport"] = [
            {"kind": kind, "site": site, "count": row[0], "bytes": row[1]}
            for kind, rows in sorted(self.collector.transport.items())
            for site, row in sorted(rows.items())
        ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MetadataLedger":
        ledger = cls()
        ledger._loaded = {window: {} for window in _WINDOWS}
        for window, cells in ledger._loaded.items():
            for row in data.get(window, ()):
                cell = LedgerCell()
                cell.count = int(row["count"])
                cell.bytes = int(row["bytes"])
                cell.components = {str(k): int(v)
                                   for k, v in row["components"].items()}
                cells[(row["protocol"], row["kind"], int(row["site"]))] = cell
        for row in data.get("transport", ()):
            ledger.collector.transport.setdefault(str(row["kind"]), {})[
                int(row["site"])] = [int(row["count"]), float(row["bytes"])]
        return ledger

    # -- the sum-to-size invariant -------------------------------------
    def crosscheck(self) -> list[str]:
        """Check every slot's components against its priced bytes.

        Returns discrepancy messages (empty list = in both windows, the
        bytes the price rows attribute to each slot's
        count and summed length are exactly the bytes ``metadata_size``
        priced when the messages were sent).
        """
        problems: list[str] = []
        for window in _WINDOWS:
            for (proto, kind, site), count, nbytes, comps in self._slots(window):
                attributed = sum(b for _name, b in comps)
                if attributed != nbytes:
                    problems.append(
                        f"{proto} {kind} site {site} ({window}): components "
                        f"of {count} message(s) sum to {attributed} bytes, "
                        f"priced {nbytes}"
                    )
        return problems

    def __repr__(self) -> str:
        return (f"<MetadataLedger keys={len(self.lifetime)} "
                f"bytes={self.total_bytes(window='lifetime')}>")
