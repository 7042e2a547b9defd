"""Byte-size model for protocol message metadata.

The paper reports message *meta-data space overhead* in bytes/KB as
serialized by JDK-8 object streams over TCP.  We cannot reproduce Java
serialization byte-for-byte, so sizes are computed from the logical
content of each message through an explicit, documented model:

* fixed-width fields (site ids, clocks, variable ids, values) have named
  byte costs;
* causality metadata costs what its structure implies — ``8*n^2`` for a
  Write matrix, ``10*n`` for a Write vector, a per-entry cost plus
  per-destination cost for Opt-Track logs, ``10`` per 2-tuple for
  Opt-Track-CRP logs;
* each message class carries a fixed *envelope* (transport + Java
  object-stream framing) calibrated once against the paper's absolute
  numbers (Tables II and III at n=5) and then left untouched.

The scaling *shapes* — quadratic vs linear vs O(d) — are produced by the
actual data structures the protocols maintain, not by the calibration;
see EXPERIMENTS.md for the paper-vs-measured comparison.

All methods return sizes in bytes.  Table values in the paper quoted in
KB use 1 KB = 1000 bytes (their byte-level Table III and KB-level
Table II are consistent under that convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["SizeModel", "DEFAULT_SIZE_MODEL", "KILOBYTE"]

#: The paper's KB convention (SI, not KiB).
KILOBYTE = 1000.0


@dataclass(frozen=True)
class SizeModel:
    """Named byte costs for every field kind appearing in a message.

    Defaults are the calibrated values; construct with overrides to study
    other serialization regimes (e.g. varint encodings), or use
    :meth:`compact` for a headerless model useful in unit tests.
    """

    # --- primitive fields --------------------------------------------
    site_id: int = 4
    var_id: int = 4
    value: int = 8           #: payload value slot (metadata excludes blobs)
    clock: int = 8           #: one logical-clock counter

    # --- causality structures ----------------------------------------
    matrix_entry: int = 8    #: one cell of the n x n Write matrix (Full-Track)
    vector_entry: int = 10   #: one cell of the size-n Write vector (optP)
    tuple_entry: int = 10    #: one (site, clock) 2-tuple (Opt-Track-CRP)
    log_entry_overhead: int = 12   #: per Opt-Track log record: ids + list header
    dest_id: int = 4         #: one destination in an Opt-Track record

    # --- message envelopes (framing + serialization headers) ----------
    envelope_full_track: int = 306
    envelope_opt_track: int = 236
    envelope_crp: int = 236
    envelope_optp: int = 197
    fm_size: int = 64        #: FM is "a constant byte count c" in the paper
    #: one (writer, threshold) pair on a fetch request — the soundness
    #: fix for remote reads (see DESIGN.md); typically 0-3 pairs ride
    #: along, so FM stays near-constant in practice
    fm_requirement: int = 12

    def __post_init__(self) -> None:
        for name in (
            "site_id", "var_id", "value", "clock", "matrix_entry",
            "vector_entry", "tuple_entry", "log_entry_overhead", "dest_id",
            "envelope_full_track", "envelope_opt_track", "envelope_crp",
            "envelope_optp", "fm_size", "fm_requirement",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"size constant {name} must be non-negative")

    # ------------------------------------------------------------------
    # causality metadata structures
    # ------------------------------------------------------------------
    def matrix_clock(self, n: int) -> int:
        """Bytes for an n x n Write matrix."""
        return self.matrix_entry * n * n

    def vector_clock(self, n: int) -> int:
        """Bytes for a size-n Write vector (optP)."""
        return self.vector_entry * n

    def opt_track_log(self, dest_counts: Iterable[int]) -> int:
        """Bytes for an Opt-Track log: one count per entry = |Dests|."""
        total = 0
        for d in dest_counts:
            if d < 0:
                raise ValueError("destination count cannot be negative")
            total += self.log_entry_overhead + self.dest_id * d
        return total

    def opt_track_log_shape(self, n_entries: int, total_dests: int) -> int:
        """Equivalent of :meth:`opt_track_log` from aggregate shape numbers
        (hot path: message sizing happens once per sent message)."""
        if n_entries < 0 or total_dests < 0:
            raise ValueError("log shape cannot be negative")
        return self.log_entry_overhead * n_entries + self.dest_id * total_dests

    def tuple_log(self, n_entries: int) -> int:
        """Bytes for an Opt-Track-CRP log of (site, clock) 2-tuples."""
        if n_entries < 0:
            raise ValueError("entry count cannot be negative")
        return self.tuple_entry * n_entries

    # ------------------------------------------------------------------
    # whole messages — partial replication protocols
    # ------------------------------------------------------------------
    def sm_full_track(self, n: int) -> int:
        """SM(x_h, v, Write) in Full-Track."""
        return self.envelope_full_track + self.var_id + self.value + self.matrix_clock(n)

    def rm_full_track(self, n: int) -> int:
        """RM(v, LastWriteOn<h>) in Full-Track: the stored Write matrix rides along."""
        return self.envelope_full_track + self.value + self.matrix_clock(n)

    def fm(self) -> int:
        """FM(x_h): the constant-size fetch request (same in all protocols)."""
        return self.fm_size

    # ------------------------------------------------------------------
    # whole messages — full replication protocols
    # ------------------------------------------------------------------
    def sm_opt_track_crp(self, n_log_entries: int) -> int:
        """SM(x_h, v, site, clock, LOG) in Opt-Track-CRP."""
        return (
            self.envelope_crp
            + self.var_id
            + self.value
            + self.site_id
            + self.clock
            + self.tuple_log(n_log_entries)
        )

    def sm_optp(self, n: int) -> int:
        """SM(x_h, v, site, Write) in optP (Baldoni et al.)."""
        return self.envelope_optp + self.var_id + self.value + self.vector_clock(n)

    # ------------------------------------------------------------------
    @staticmethod
    def compact() -> "SizeModel":
        """A headerless model: pure structure, no envelopes.

        Useful in unit tests where exact arithmetic should be readable,
        and in ablations isolating structural growth from fixed costs.
        """
        return SizeModel(
            envelope_full_track=0,
            envelope_opt_track=0,
            envelope_crp=0,
            envelope_optp=0,
            fm_size=0,
        )


#: Shared default instance (immutable).
DEFAULT_SIZE_MODEL = SizeModel()
