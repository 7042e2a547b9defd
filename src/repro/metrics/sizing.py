"""Byte-size model for protocol message metadata.

The paper reports message *meta-data space overhead* in bytes/KB as
serialized by JDK-8 object streams over TCP.  We cannot reproduce Java
serialization byte-for-byte, so sizes are computed from the logical
content of each message through an explicit, documented model.  This
module holds only the model's named byte costs; the formulas that
combine them live once, in the price table of
:mod:`repro.core.messages` (``PRICE_TABLE``, one row per message type),
which the senders, the metadata ledger, the analytic model and the
calibration all read:

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

All costs are in bytes.  Table values in the paper quoted in KB use
1 KB = 1000 bytes (their byte-level Table III and KB-level Table II are
consistent under that convention).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SizeModel", "COSTS", "KILOBYTE"]

#: The paper's KB convention (SI, not KiB).
KILOBYTE = 1000.0


@dataclass(frozen=True, init=False)
class SizeModel:
    """Named byte costs for every field kind appearing in a message.

    The values are the calibrated ones and the only ones: the class
    takes no arguments (``SizeModel(clock=1)`` is a ``TypeError``), and
    every price reads the one instance, :data:`COSTS`.
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


#: The calibrated costs every price reads.
COSTS = SizeModel()
