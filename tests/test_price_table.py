"""Property: one price table prices a message, splits it for the ledger
and predicts it analytically, and the three agree.

For every message type a random shape is drawn — an Opt-Track log of
0-60 records naming 0-12 destinations each, a CRP log of 0-60 tuples,
a clock 1-40 wide, 0-5 fetch requirements — and priced.
``metadata_size`` must equal
the sum of :func:`~repro.obs.ledger.decompose_message`'s components —
with no clock cell booked as padding, and with every cell beyond the
first booked as ``epoch_padding`` — and the per-message size
:mod:`repro.analysis.model` predicts at that shape.

The table's clock rows are calibrated against the paper's own sizes
(Tables II and III); ``tests/test_calibration.py`` pins how far they may
drift from them.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import (
    CostBreakdown,
    full_track_total_size,
    opt_track_crp_total_size,
    opt_track_total_size,
    optp_total_size,
)
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry
from repro.core.messages import (
    CRPSM,
    PRICE_TABLE,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
    accounting_shape,
)
from repro.memory.store import WriteId
from repro.metrics.sizing import COSTS
from repro.obs.ledger import decompose_message

WID = WriteId(1, 3)
#: the ledger's ``base_n``: its default (no padding), and one site
#: (every clock cell beyond the first is padding)
BASE_N = {"default": None, "padded": 1}

widths = st.integers(1, 40)
records = st.lists(
    st.builds(PiggybackEntry, st.integers(0, 39), st.integers(1, 10**6),
              st.frozensets(st.integers(0, 39), max_size=12)),
    max_size=60)
pairs = st.lists(st.tuples(st.integers(0, 39), st.integers(1, 10**6)),
                 max_size=60)

#: one strategy per message type, drawing the shape its price depends on
MESSAGES = {
    FetchMessage: st.builds(
        lambda reqs: FetchMessage(0, 2, 7, tuple(reqs)),
        st.lists(st.tuples(st.integers(0, 39), st.integers(1, 99)),
                 max_size=5)),
    FullTrackSM: st.builds(
        lambda n: FullTrackSM(0, 1, WID, MatrixClock(n)), widths),
    FullTrackRM: st.builds(
        lambda n: FullTrackRM(0, 1, WID, MatrixClock(n), 4), widths),
    OptTrackSM: st.builds(
        lambda log: OptTrackSM(0, 1, WID, tuple(log)), records),
    OptTrackRM: st.builds(
        lambda log: OptTrackRM(0, 1, WID, tuple(log), 4), records),
    CRPSM: st.builds(lambda log: CRPSM(0, 1, WID, tuple(log)), pairs),
    OptPSM: st.builds(lambda n: OptPSM(0, 1, WID, VectorClock(n)), widths),
}


def per_message(cost: CostBreakdown, kind: str) -> float:
    return getattr(cost, f"{kind}_bytes") / getattr(cost, f"{kind}_count")


def predicted(message):
    """The analytic model's per-message size at ``message``'s shape, or
    ``None`` where it predicts no message of this kind (a one-site
    system sends nothing)."""
    if isinstance(message, FetchMessage):
        # the analytic FM is the paper's constant body: no requirements
        return per_message(full_track_total_size(2, 1, 1, 1), "fm")
    if isinstance(message, (FullTrackSM, FullTrackRM)):
        n = message.matrix.n
        if n == 1:
            return None
        kind = "sm" if isinstance(message, FullTrackSM) else "rm"
        return per_message(full_track_total_size(n, 1, 1, 1), kind)
    if isinstance(message, OptPSM):
        n = message.vector.n
        return None if n == 1 else per_message(optp_total_size(n, 1),
                                               "sm")
    if isinstance(message, CRPSM):
        return per_message(opt_track_crp_total_size(
            2, 1, mean_log_entries=len(message.log)), "sm")
    log = message.log
    dests = sum(len(e.dests) for e in log)
    cost = opt_track_total_size(
        2, 1, 1, 1, amortized_log_entries=len(log),
        mean_dests_per_entry=dests / len(log) if log else 0.0)
    return per_message(cost, "sm" if isinstance(message, OptTrackSM) else "rm")


def test_every_message_type_has_a_row_and_a_strategy():
    assert set(MESSAGES) == set(PRICE_TABLE)


@pytest.mark.parametrize("base_n", sorted(BASE_N))
@pytest.mark.parametrize("message_type", list(MESSAGES),
                         ids=lambda t: t.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_price_ledger_and_analytic_model_agree(message_type, base_n, data):
    message = data.draw(MESSAGES[message_type])
    size = message.metadata_size()
    parts = dict(decompose_message(message, BASE_N[base_n]))
    assert sum(parts.values()) == size
    # accounting_shape's width is 0 for a message without a clock
    assert ("epoch_padding" in parts) == (
        base_n == "padded" and accounting_shape(message)[1] > 1)
    if isinstance(message, FetchMessage):
        base = dataclasses.replace(message, requirements=())
        assert size - base.metadata_size() == (
            COSTS.fm_requirement * len(message.requirements))
        size = base.metadata_size()
    expected = predicted(message)
    if expected is not None:
        assert size == pytest.approx(expected)

