"""Size-model calibration: deriving envelope constants from reference data.

The size model prices messages from their logical structure plus fixed
per-class envelopes (transport + serialization framing).  The envelopes
were calibrated once against the paper's own tables; this module keeps
that derivation *executable* so the calibration can be audited, redone
against a different reference (e.g. measurements of a real serializer),
or extended to new message classes.

The structural coefficients are knowable a priori (a Write matrix has
n² entries, a vector n entries); fitting therefore reduces to linear
regression of reference sizes against the structural term:

    size(n) ≈ envelope' + coefficient · term(n)

where ``envelope'`` absorbs the fixed fields (var id, value, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.messages import PRICE_TABLE, FullTrackSM, OptPSM

__all__ = [
    "LinearFit",
    "fit_linear",
    "fit_optp_envelope",
    "fit_full_track_envelope",
    "PAPER_OPTP_REFERENCE",
    "PAPER_FULL_TRACK_SM_REFERENCE",
]

#: Table III of the paper: optP per-SM bytes by n (exactly 209 + 10 n).
PAPER_OPTP_REFERENCE: dict[int, float] = {
    5: 259, 10: 309, 20: 409, 30: 509, 35: 559, 40: 609,
}

#: Table II of the paper: Full-Track per-SM bytes by n, w_rate=0.2.
PAPER_FULL_TRACK_SM_REFERENCE: dict[int, float] = {
    5: 518, 10: 1252, 20: 3870, 30: 8028, 40: 13547,
}


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of sizes against one structural term."""

    intercept: float
    slope: float
    residual_rms: float
    max_relative_error: float

    def predict(self, term: float) -> float:
        return self.intercept + self.slope * term


def fit_linear(terms: Sequence[float], sizes: Sequence[float]) -> LinearFit:
    """Least-squares ``size ≈ intercept + slope * term``."""
    t = np.asarray(terms, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.size < 2:
        raise ValueError("need matching term/size sequences of length >= 2")
    design = np.stack([np.ones_like(t), t], axis=1)
    coef, *_ = np.linalg.lstsq(design, s, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    predicted = intercept + slope * t
    residual_rms = float(np.sqrt(np.mean((predicted - s) ** 2)))
    max_rel = float(np.max(np.abs(predicted - s) / s))
    return LinearFit(intercept, slope, residual_rms, max_rel)


def fit_optp_envelope(
    reference: dict[int, float] | None = None,
) -> LinearFit:
    """Fit optP's SM size against n (term = vector length).

    Against the paper's Table III the fit is exact: slope 10 (bytes per
    vector entry), intercept 209 (envelope + var id + value).
    """
    ref = PAPER_OPTP_REFERENCE if reference is None else reference
    ns = sorted(ref)
    return fit_linear(ns, [ref[n] for n in ns])


def fit_full_track_envelope(
    reference: dict[int, float] | None = None,
) -> LinearFit:
    """Fit Full-Track's SM size against n² (term = matrix cells).

    Against the paper's Table II (w=0.2) the slope lands near 8 bytes
    per matrix cell with an intercept near the low hundreds — the basis
    for the calibrated ``matrix_entry=8`` / ``envelope_full_track=306``.
    """
    ref = PAPER_FULL_TRACK_SM_REFERENCE if reference is None else reference
    ns = sorted(ref)
    return fit_linear([n * n for n in ns], [ref[n] for n in ns])


def verify_default_calibration() -> dict:
    """How far the calibrated costs sit from the paper references.

    Returns per-anchor relative errors; used by tests to pin the
    calibration contract (optP exact; Full-Track within a few percent).
    """
    out: dict[str, float] = {}
    optp, full_track = PRICE_TABLE[OptPSM], PRICE_TABLE[FullTrackSM]
    for n, ref in PAPER_OPTP_REFERENCE.items():
        out[f"optp_n{n}"] = abs(optp.size_at(width=n) - ref) / ref
    for n, ref in PAPER_FULL_TRACK_SM_REFERENCE.items():
        size = full_track.size_at(width=n)
        out[f"full_track_n{n}"] = abs(size - ref) / ref
    return out
