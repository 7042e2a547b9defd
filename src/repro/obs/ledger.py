"""Metadata-byte ledger: where a run's piggyback bytes went, by component.

The paper's Tables II/III report one number per protocol — total metadata
bytes.  Every sent message is booked exactly once, in its sender's slot
of the :class:`~repro.metrics.collector.MetricsCollector`
(``[count, priced bytes, summed log / requirement length]`` per protocol,
kind, site, message type and clock width — see
:meth:`~repro.core.base.CausalProtocol._send`).  The collector's own
tallies sum those slots into the paper's numbers; the ledger reads the
*same* slots and splits the same bytes into the *components* the size
model prices:

========================  =====================================================
component                 meaning
========================  =====================================================
``envelope``              per-message framing / serialization headers
``var_id``                the variable id field
``value``                 the payload value slot
``site_id``               the writer-site field (Opt-Track family)
``clock``                 the writer-clock field (Opt-Track family)
``clock_entries``         matrix (Full-Track) / vector (optP) clock cells
``epoch_padding``         clock cells beyond the run's initial n — metadata
                          growth purchased by membership epochs (churn runs)
``log_records``           Opt-Track KS-log per-record overhead
``dest_ids``              Opt-Track per-destination ids inside log records
``tuple_entries``         Opt-Track-CRP (site, clock) 2-tuples
``fm_base``               the constant fetch-request body
``fm_requirements``       (writer, threshold) gating pairs on a fetch
``opaque``                any message type the ledger has no decomposer for
========================  =====================================================

Every decomposition is linear in a slot's three sums, so it is computed
from them when a report is asked for — nothing in this module runs per
message, and a ledger can be put over any collector: a simulator run's
(``registry.ledger``) or a live node's (``MetadataLedger(core.collector)``).
Cells are keyed by protocol x message kind x site, in the collector's two
windows: ``lifetime`` (every send) and ``measured`` (after the warm-up
gate opened).  With one writer, "ledger total == collector total" holds
by construction; what :meth:`MetadataLedger.crosscheck` still checks is
that each slot's components **sum exactly** to the bytes
``message.metadata_size(model)`` priced at send time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..core.messages import (
    CRPSM,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
    accounting_shape,
)
from ..metrics.collector import MessageKind, MetricsCollector
from ..metrics.sizing import DEFAULT_SIZE_MODEL, SizeModel

__all__ = ["MetadataLedger", "LedgerCell", "decompose_message", "COMPONENTS"]

#: every component name the decomposers can emit (documentation + tests)
COMPONENTS = (
    "envelope",
    "var_id",
    "value",
    "site_id",
    "clock",
    "clock_entries",
    "epoch_padding",
    "log_records",
    "dest_ids",
    "tuple_entries",
    "fm_base",
    "fm_requirements",
    "opaque",
)

Breakdown = tuple[tuple[str, int], ...]


def _split_growth(label: str, per_cell_bytes: int, cells: int,
                  base_cells: int, mult: int = 1) -> Breakdown:
    """Split ``mult`` clock structures into base cells vs growth."""
    if cells <= base_cells:
        return ((label, per_cell_bytes * cells * mult),)
    return (
        (label, per_cell_bytes * base_cells * mult),
        ("epoch_padding", per_cell_bytes * (cells - base_cells) * mult),
    )


def _sum_breakdown(t: Optional[type], n: int, count: int, length: int,
                   nbytes: int, model: SizeModel, base_n: int) -> Breakdown:
    """Component bytes for ``count`` messages of type ``t`` at once.

    Every decomposition is *linear* in a slot's three sums — message
    count, summed log/requirement ``length``, and priced ``nbytes`` —
    except the clock split, which depends on the clock dimension ``n``
    (constant between view changes, so it rides in the slot key
    instead).  Mirrors ``core/messages.py`` ``metadata_size`` formulas
    exactly; only the Opt-Track ``dest_ids`` and ``opaque`` are taken
    from ``nbytes``, so for every other type "components sum to
    ``nbytes``" checks the formulas against what was priced.
    """
    if t is OptTrackSM or t is OptTrackRM:
        # the per-destination ids are the remainder after the fixed
        # fields and per-record overhead — dest_id * total_dests by the
        # metadata_size formula, without ever walking a piggybacked log
        fixed = (model.envelope_opt_track + model.value
                 + model.site_id + model.clock)
        parts: Breakdown = (
            ("envelope", model.envelope_opt_track * count),
            ("value", model.value * count),
            ("site_id", model.site_id * count),
            ("clock", model.clock * count),
        )
        if t is OptTrackSM:
            fixed += model.var_id
            parts += (("var_id", model.var_id * count),)
        log_bytes = model.log_entry_overhead * length
        return parts + (
            ("log_records", log_bytes),
            ("dest_ids", nbytes - fixed * count - log_bytes),
        )
    if t is FullTrackSM:
        return (
            ("envelope", model.envelope_full_track * count),
            ("var_id", model.var_id * count),
            ("value", model.value * count),
        ) + _split_growth("clock_entries", model.matrix_entry, n * n,
                          base_n * base_n, count)
    if t is FullTrackRM:
        return (
            ("envelope", model.envelope_full_track * count),
            ("value", model.value * count),
        ) + _split_growth("clock_entries", model.matrix_entry, n * n,
                          base_n * base_n, count)
    if t is OptPSM:
        return (
            ("envelope", model.envelope_optp * count),
            ("var_id", model.var_id * count),
            ("value", model.value * count),
        ) + _split_growth("clock_entries", model.vector_entry, n,
                          base_n, count)
    if t is CRPSM:
        return (
            ("envelope", model.envelope_crp * count),
            ("var_id", model.var_id * count),
            ("value", model.value * count),
            ("site_id", model.site_id * count),
            ("clock", model.clock * count),
            ("tuple_entries", model.tuple_entry * length),
        )
    if t is FetchMessage:
        return (
            ("fm_base", model.fm_size * count),
            ("fm_requirements", model.fm_requirement * length),
        )
    return (("opaque", nbytes),)


def decompose_message(message: object, model: SizeModel,
                      base_n: Optional[int] = None) -> Breakdown:
    """Per-component byte breakdown of one message.

    Invariant: the component bytes sum to ``message.metadata_size(model)``
    exactly.  Unknown message types fall back to a single ``opaque``
    component priced by their own ``metadata_size``, preserving the
    invariant for protocols added later.

    ``base_n`` (the run's initial site count) splits clock structures
    that grew past it into ``clock_entries`` + ``epoch_padding``; with
    ``None`` nothing is attributed to padding.
    """
    length_of, width = accounting_shape(message)
    return _sum_breakdown(
        type(message), width, 1,
        len(length_of(message)) if length_of is not None else 0,
        message.metadata_size(model),  # type: ignore[attr-defined]
        model, base_n or 0)


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

    def __init__(self, collector: Optional[MetricsCollector] = None,
                 model: SizeModel = DEFAULT_SIZE_MODEL,
                 base_n: Optional[int] = None) -> None:
        self.collector = collector if collector is not None else MetricsCollector()
        #: the size model the collector's senders priced against
        self.model = model
        #: initial site count; clock growth beyond it is epoch padding
        self.base_n = base_n
        #: both windows as loaded by :meth:`from_dict`, served in place
        #: of the (empty) collector's
        self._loaded: Optional[dict[str, dict[CellKey, LedgerCell]]] = None

    # -- expansion -----------------------------------------------------
    def _slots(self, window: str
               ) -> Iterator[tuple[CellKey, int, int, Breakdown]]:
        """``(cell key, count, priced bytes, components)`` per collector
        slot booked in ``window``."""
        base_n = self.base_n or 0
        for kind in MessageKind:
            for key, (count, nbytes, length) in self.collector.message_slots(
                    kind, measured=window == "measured"):
                if not count:
                    continue  # nothing booked inside the window
                # record_message() callers hold no slot and give no key
                proto, site, t, width = key if key is not None else ("-", -1, None, 0)
                yield ((proto, kind.value, site), count, nbytes,
                       _sum_breakdown(t, width, count, length, nbytes,
                                      self.model, base_n))

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
        out: dict = {"base_n": self.base_n}
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
        ledger = cls(base_n=data.get("base_n"))
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
        bytes :func:`_sum_breakdown`'s formulas attribute to each slot's
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
