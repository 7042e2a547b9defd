"""Message types exchanged by the protocols (Table I of the paper).

Three classes of messages exist:

* **SM** — multicast update carrying a write's value plus the protocol's
  causality metadata (a Write matrix, a KS log, a 2-tuple log, or a
  Write vector depending on the protocol);
* **FM** — constant-size remote-fetch request for a variable not
  replicated at the reader;
* **RM** — remote return carrying the value and the ``LastWriteOn<h>``
  metadata stored with it at the serving replica.

Every message type's price is one row of :data:`PRICE_TABLE`: named
ledger components, each a named cost of :data:`~repro.metrics.sizing.COSTS`
times a count.  ``metadata_size`` (priced at *send* time, matching the
paper's accounting: total size of all messages generated), the metadata
ledger's component split and the analytic model of
:mod:`repro.analysis.model` all read these rows, so each formula is
written once (``tests/test_price_table.py`` pins them to the paper's
reference sizes).  :func:`accounting_shape` names, per
message type, the one variable-length field (or the clock width) the
price depends on, so the sender can book it and a report can split the
bytes by component without seeing the messages again.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, Sized

from ..memory.store import WriteId
from ..memory.value import value_type
from ..metrics.sizing import COSTS
from .clocks import MatrixClock, VectorClock
from .log import PiggybackEntry, PiggybackView

__all__ = [
    "FetchMessage",
    "FullTrackSM",
    "FullTrackRM",
    "OptTrackSM",
    "OptTrackRM",
    "CRPSM",
    "OptPSM",
    "PRICE_TABLE",
    "PriceRow",
    "accounting_shape",
]

#: a component split: ``(component name, bytes)`` pairs
Breakdown = tuple[tuple[str, int], ...]


class _Priced:
    """``metadata_size`` for every message type: its :data:`PRICE_TABLE`
    row's sizer, resolved once at import."""

    __slots__ = ()

    def metadata_size(self) -> int:
        return _SIZE_OF[type(self)](self)


@value_type
class FetchMessage(_Priced):
    """FM(x_h): ask a predesignated replica for x_h's value.

    ``request_id`` lets the reader pair the eventual RM with the blocked
    read operation (multiple outstanding fetches never happen for a
    sequential application process, but the id keeps the pairing explicit
    and checkable).

    ``requirements`` closes a soundness gap in the protocols as
    literally specified (see DESIGN.md, "gating fetch service"): it
    lists ``(writer, threshold)`` pairs — the writes in the reader's
    causal past destined to the serving site — and the server defers its
    reply until it has applied all of them.  Without this the server can
    answer with a value causally behind the reader's own knowledge
    (e.g. behind the reader's own still-buffered write to the same
    variable).  Message counts are unaffected: still one FM and one RM
    per remote read.
    """

    var: int
    reader: int
    request_id: int
    requirements: tuple[tuple[int, int], ...] = ()


# ----------------------------------------------------------------------
# Full-Track (partial replication, matrix clocks)
# ----------------------------------------------------------------------
@value_type
class FullTrackSM(_Priced):
    """SM(x_h, v, Write): update multicast with the full n x n matrix."""

    var: int
    value: object
    write_id: WriteId
    matrix: MatrixClock
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0


@value_type
class FullTrackRM(_Priced):
    """RM(v, LastWriteOn<h>): remote return with the stored matrix."""

    var: int
    value: object
    write_id: Optional[WriteId]
    matrix: MatrixClock
    request_id: int


# ----------------------------------------------------------------------
# Opt-Track (partial replication, KS logs)
# ----------------------------------------------------------------------
@value_type
class OptTrackSM(_Priced):
    """SM(x_h, v, site, clock, L_w): update multicast with a pruned log.

    ``log`` is the per-destination :class:`~repro.core.log.PiggybackView`
    produced by :meth:`~repro.core.log.OptTrackLog.piggyback_views` —
    different copies of the same write carry differently pruned logs
    over one shared base.  A flat sequence of records (a decoded wire
    message, a hand-built test message) is wrapped on construction, so
    receivers always hold a view.
    """

    var: int
    value: object
    write_id: WriteId
    log: PiggybackView
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.log, PiggybackView):
            object.__setattr__(
                self, "log", PiggybackView.from_entries(self.log)
            )


@value_type
class OptTrackRM(_Priced):
    """RM(v, LastWriteOn<h>): value + the write's id and piggybacked log.

    ``write_id``/``log`` are ``None``/empty when the variable was never
    written (the read returns |bot| and establishes no dependency).
    """

    var: int
    value: object
    write_id: Optional[WriteId]
    log: tuple[PiggybackEntry, ...]
    request_id: int


# ----------------------------------------------------------------------
# Opt-Track-CRP (full replication, 2-tuple logs)
# ----------------------------------------------------------------------
@value_type
class CRPSM(_Priced):
    """SM(x_h, v, site, clock, LOG): update with (writer, clock) 2-tuples."""

    var: int
    value: object
    write_id: WriteId
    log: tuple[tuple[int, int], ...]
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0


# ----------------------------------------------------------------------
# optP (full replication, vector clocks) — Baldoni et al. baseline
# ----------------------------------------------------------------------
@value_type
class OptPSM(_Priced):
    """SM(x_h, v, site, Write): update with the size-n Write vector."""

    var: int
    value: object
    write_id: WriteId
    vector: VectorClock
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0


# ----------------------------------------------------------------------
# the price table
# ----------------------------------------------------------------------
class PriceRow(NamedTuple):
    """One message type's price, as named ledger components.

    * ``fixed``: ``(component, field)`` pairs, one named cost
      (a :class:`~repro.metrics.sizing.SizeModel` field) each per message;
    * ``records``: ``(component, field, length_of)`` — ``field`` bytes
      per item of the sized field ``length_of`` reads;
    * ``clock``: ``(field, power, clock_of)`` — ``field`` bytes per cell
      of the carried clock, ``width ** power`` cells, booked as
      ``clock_entries`` up to the run's initial width and
      ``epoch_padding`` beyond it;
    * ``dests``: ``(field, count_of)`` — Opt-Track's ``dest_ids``,
      ``field`` bytes per destination ``count_of`` counts over the
      records.

    Every row has a clock term or a record term, never both.
    """

    fixed: tuple[tuple[str, str], ...]
    records: Optional[tuple[str, str, Callable[[Any], Sized]]] = None
    clock: Optional[tuple[str, int, Callable[[Any], Any]]] = None
    dests: Optional[tuple[str, Callable[[Any], int]]] = None

    def sizer(self) -> Callable[[Any], int]:
        """The price of one message, every cost read once here rather
        than per call."""
        const = sum(getattr(COSTS, f) for _c, f in self.fixed)
        if self.clock is not None:
            field, power, clock_of = self.clock
            cell = getattr(COSTS, field)
            return lambda m: const + cell * clock_of(m).n ** power
        _c, field, length_of = self.records
        per = getattr(COSTS, field)
        if self.dests is None:
            return lambda m: const + per * len(length_of(m))
        field, count_of = self.dests
        per_dest = getattr(COSTS, field)

        def size(m: Any) -> int:
            records = length_of(m)
            return const + per * len(records) + per_dest * count_of(records)
        return size

    def size_at(self, *, records: float = 0, dests: float = 0,
                width: int = 0) -> float:
        """The price of one message of a shape — ``records`` items,
        ``dests`` destinations in all, a ``width``-wide clock — where
        means are allowed (the analytic model's expected shape)."""
        size: float = sum(getattr(COSTS, f) for _c, f in self.fixed)
        if self.records is not None:
            size += getattr(COSTS, self.records[1]) * records
        if self.dests is not None:
            size += getattr(COSTS, self.dests[0]) * dests
        if self.clock is not None:
            size += getattr(COSTS, self.clock[0]) * width ** self.clock[1]
        return size

    def breakdown(self, count: int, length: int, nbytes: int, width: int,
                  base_n: Optional[int]) -> Breakdown:
        """Component bytes of ``count`` messages booked in one slot.

        Linear in the slot's three sums — message count, summed record
        ``length``, priced ``nbytes`` — except the clock split, which
        depends on the clock ``width`` (fixed between view changes, so
        it rides in the slot key).  Clock cells beyond ``base_n``'s are
        ``epoch_padding``; with ``base_n=None`` none are.  Only
        ``dest_ids`` is taken from ``nbytes`` (the remainder), so for
        every other row "components sum to ``nbytes``" checks the
        booking against the price.
        """
        parts = [(c, getattr(COSTS, f) * count) for c, f in self.fixed]
        if self.records is not None:
            c, f, _length_of = self.records
            parts.append((c, getattr(COSTS, f) * length))
        if self.clock is not None:
            f, power, _clock_of = self.clock
            cell = getattr(COSTS, f) * count
            cells = width ** power
            base = cells if base_n is None else min(cells, base_n ** power)
            parts.append(("clock_entries", cell * base))
            if cells > base:
                parts.append(("epoch_padding", cell * (cells - base)))
        if self.dests is not None:
            parts.append(("dest_ids", nbytes - sum(b for _c, b in parts)))
        return tuple(parts)


def _fixed(envelope: str, *names: str) -> tuple[tuple[str, str], ...]:
    """The fixed components: the type's envelope, then fields booked
    under their own names."""
    return (("envelope", envelope),) + tuple((name, name) for name in names)


_LOG = attrgetter("log")


def _flat_dests(log: tuple[PiggybackEntry, ...]) -> int:
    total = 0
    for e in log:  # a plain loop beats map(attrgetter) here
        total += len(e.dests)
    return total


#: every message type's price; a type missing here is booked ``opaque``
PRICE_TABLE: dict[type, PriceRow] = {
    FetchMessage: PriceRow(
        (("fm_base", "fm_size"),),
        records=("fm_requirements", "fm_requirement",
                 attrgetter("requirements"))),
    FullTrackSM: PriceRow(
        _fixed("envelope_full_track", "var_id", "value"),
        clock=("matrix_entry", 2, attrgetter("matrix"))),
    FullTrackRM: PriceRow(
        _fixed("envelope_full_track", "value"),
        clock=("matrix_entry", 2, attrgetter("matrix"))),
    OptTrackSM: PriceRow(
        _fixed("envelope_opt_track", "var_id", "value", "site_id", "clock"),
        records=("log_records", "log_entry_overhead", _LOG),
        dests=("dest_id", PiggybackView.dest_total)),
    OptTrackRM: PriceRow(
        _fixed("envelope_opt_track", "value", "site_id", "clock"),
        records=("log_records", "log_entry_overhead", _LOG),
        dests=("dest_id", _flat_dests)),
    CRPSM: PriceRow(
        _fixed("envelope_crp", "var_id", "value", "site_id", "clock"),
        records=("tuple_entries", "tuple_entry", _LOG)),
    OptPSM: PriceRow(
        _fixed("envelope_optp", "var_id", "value"),
        clock=("vector_entry", 1, attrgetter("vector"))),
}

#: each row's sizer, what ``metadata_size`` calls
_SIZE_OF: dict[type, Callable[[Any], int]] = {
    cls: row.sizer() for cls, row in PRICE_TABLE.items()}


def accounting_shape(
    message: object,
) -> tuple[Optional[Callable[[Any], Sized]], int]:
    """``(length_of, clock_width)`` for ``message``'s type, from its row.

    ``length_of`` reads the field whose ``len()`` a sender sums next to
    the message count and the priced bytes (``None``: the type has no
    such field); ``clock_width`` is the dimension of the clock the
    message carries (0: none), constant between view changes, so it is
    part of the slot key rather than summed.  A type the table does not
    list — a protocol added later — is accounted by count and priced
    bytes alone.
    """
    row = PRICE_TABLE.get(type(message))
    if row is None:
        return None, 0
    return (row.records[2] if row.records is not None else None,
            row.clock[2](message).n if row.clock is not None else 0)
