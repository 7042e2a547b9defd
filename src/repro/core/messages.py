"""Message types exchanged by the protocols (Table I of the paper).

Three classes of messages exist:

* **SM** — multicast update carrying a write's value plus the protocol's
  causality metadata (a Write matrix, a KS log, a 2-tuple log, or a
  Write vector depending on the protocol);
* **FM** — constant-size remote-fetch request for a variable not
  replicated at the reader;
* **RM** — remote return carrying the value and the ``LastWriteOn<h>``
  metadata stored with it at the serving replica.

Every message knows how to price its own metadata against a
:class:`~repro.metrics.sizing.SizeModel`; the collector records that
size at *send* time, matching the paper's accounting (total size of all
messages generated).  :func:`accounting_shape` names, per message type,
the one variable-length field (or the clock width) that size depends on,
so the sender can book it and a report can split the bytes by component
without seeing the messages again.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sized

from ..memory.store import WriteId
from ..metrics.sizing import SizeModel
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
    "accounting_shape",
]


@dataclass(frozen=True, slots=True)
class FetchMessage:
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

    def metadata_size(self, model: SizeModel) -> int:
        return model.fm() + model.fm_requirement * len(self.requirements)


# ----------------------------------------------------------------------
# Full-Track (partial replication, matrix clocks)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FullTrackSM:
    """SM(x_h, v, Write): update multicast with the full n x n matrix."""

    var: int
    value: object
    write_id: WriteId
    matrix: MatrixClock
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0

    def metadata_size(self, model: SizeModel) -> int:
        return model.sm_full_track(self.matrix.n)


@dataclass(frozen=True, slots=True)
class FullTrackRM:
    """RM(v, LastWriteOn<h>): remote return with the stored matrix."""

    var: int
    value: object
    write_id: Optional[WriteId]
    matrix: MatrixClock
    request_id: int

    def metadata_size(self, model: SizeModel) -> int:
        return model.rm_full_track(self.matrix.n)


# ----------------------------------------------------------------------
# Opt-Track (partial replication, KS logs)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OptTrackSM:
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

    def metadata_size(self, model: SizeModel) -> int:
        log = self.log
        return (
            model.envelope_opt_track + model.var_id + model.value
            + model.site_id + model.clock
            + model.opt_track_log_shape(len(log), log.dest_total())
        )


@dataclass(frozen=True, slots=True)
class OptTrackRM:
    """RM(v, LastWriteOn<h>): value + the write's id and piggybacked log.

    ``write_id``/``log`` are ``None``/empty when the variable was never
    written (the read returns |bot| and establishes no dependency).
    """

    var: int
    value: object
    write_id: Optional[WriteId]
    log: tuple[PiggybackEntry, ...]
    request_id: int

    def metadata_size(self, model: SizeModel) -> int:
        total_dests = 0
        for e in self.log:  # explicit loop: sized on every send (hot)
            total_dests += len(e.dests)
        return (
            model.envelope_opt_track + model.value
            + model.site_id + model.clock
            + model.opt_track_log_shape(len(self.log), total_dests)
        )


# ----------------------------------------------------------------------
# Opt-Track-CRP (full replication, 2-tuple logs)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CRPSM:
    """SM(x_h, v, site, clock, LOG): update with (writer, clock) 2-tuples."""

    var: int
    value: object
    write_id: WriteId
    log: tuple[tuple[int, int], ...]
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0

    def metadata_size(self, model: SizeModel) -> int:
        return model.sm_opt_track_crp(len(self.log))


# ----------------------------------------------------------------------
# optP (full replication, vector clocks) — Baldoni et al. baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OptPSM:
    """SM(x_h, v, site, Write): update with the size-n Write vector."""

    var: int
    value: object
    write_id: WriteId
    vector: VectorClock
    #: simulated issue time (ms); lets receivers report visibility lag
    issued_at: float = 0.0

    def metadata_size(self, model: SizeModel) -> int:
        return model.sm_optp(self.vector.n)


# ----------------------------------------------------------------------
# what a sent message adds to its accounting slot
# ----------------------------------------------------------------------
#: per message type: the reader of the field ``metadata_size`` multiplies
#: a per-record cost by, or of the clock whose dimension fixes the size
_SHAPE: dict[type, tuple[Optional[Callable[[object], Sized]],
                         Optional[Callable[[object], object]]]] = {
    FetchMessage: (attrgetter("requirements"), None),
    FullTrackSM: (None, attrgetter("matrix")),
    FullTrackRM: (None, attrgetter("matrix")),
    OptTrackSM: (attrgetter("log"), None),
    OptTrackRM: (attrgetter("log"), None),
    CRPSM: (attrgetter("log"), None),
    OptPSM: (None, attrgetter("vector")),
}


def accounting_shape(
    message: object,
) -> tuple[Optional[Callable[[object], Sized]], int]:
    """``(length_of, clock_width)`` for ``message``'s type.

    ``length_of`` reads the field whose ``len()`` a sender sums next to
    the message count and the priced bytes (``None``: the type has no
    such field); ``clock_width`` is the dimension of the clock the
    message carries (0: none), constant between view changes, so it is
    part of the slot key rather than summed.  A type the table does not
    list — a protocol added later — is accounted by count and priced
    bytes alone.
    """
    length_of, clock_of = _SHAPE.get(type(message), (None, None))
    return (length_of,
            clock_of(message).n if clock_of is not None else 0)  # type: ignore[attr-defined]
