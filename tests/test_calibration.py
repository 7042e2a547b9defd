"""The price table's clock rows against the paper's own sizes.

Tables II and III of the paper give Full-Track's and optP's per-SM bytes
at a few system sizes; the costs in :mod:`repro.metrics.sizing` were
chosen to reproduce them.  These tests pin how far the shipped rows may
drift from those anchors.
"""

from repro.core.messages import PRICE_TABLE, FullTrackSM, OptPSM

#: Table III of the paper: optP per-SM bytes by n (exactly 209 + 10 n).
PAPER_OPTP_REFERENCE = {5: 259, 10: 309, 20: 409, 30: 509, 35: 559, 40: 609}

#: Table II of the paper: Full-Track per-SM bytes by n, w_rate=0.2.
PAPER_FULL_TRACK_SM_REFERENCE = {5: 518, 10: 1252, 20: 3870, 30: 8028, 40: 13547}


def default_model_errors() -> dict[str, float]:
    """Relative error of the shipped price at every paper anchor, keyed
    ``optp_n<n>`` / ``full_track_sm_n<n>``."""
    errors = {}
    for key, row, reference in (
            ("optp", PRICE_TABLE[OptPSM], PAPER_OPTP_REFERENCE),
            ("full_track_sm", PRICE_TABLE[FullTrackSM],
             PAPER_FULL_TRACK_SM_REFERENCE)):
        for n, ref in reference.items():
            errors[f"{key}_n{n}"] = abs(row.size_at(width=n) - ref) / ref
    return errors


class TestPaperFits:
    def test_optp_fit_is_exact_209_plus_10n(self):
        optp = PRICE_TABLE[OptPSM]
        for n, ref in PAPER_OPTP_REFERENCE.items():
            assert ref == 209 + 10 * n, n
            assert optp.size_at(width=n) == ref, n


class TestCalibrationContract:
    def test_default_model_errors(self):
        errors = default_model_errors()
        assert len(errors) == (len(PAPER_OPTP_REFERENCE)
                               + len(PAPER_FULL_TRACK_SM_REFERENCE))
        for key, err in errors.items():
            if key.startswith("optp"):
                assert err == 0.0, key          # exact by construction
            else:
                assert err < 0.11, (key, err)   # Full-Track within 11%
