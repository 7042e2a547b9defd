"""Hot-path classes must stay slotted.

The hot-path rearchitecture (docs/architecture.md, "Hot path &
performance model") relies on ``__slots__`` for the record types the
simulator creates or touches per event: pending-message entries, heap
events, per-channel stats, clocks, logs, tracer spans, and streaming
stats.  A ``__dict__`` creeping back in (e.g. a subclass forgetting
``__slots__ = ()``, or a dataclass losing ``slots=True``) silently
doubles per-instance memory and slows every attribute access, so this
is pinned here.
"""

import pytest

from repro.core.base import _Pending, _PendingFM, _PendingRM, _PendingSM
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import OptTrackLog, PiggybackEntry, TupleLog
from repro.core.netpolicy import DataPacket
from repro.metrics.stats import RunningStat
from repro.obs.tracer import TraceEvent, _MsgState
from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.network import ChannelStats
from repro.sim.reliable import AckPacket

#: every class on the per-event/per-message hot path, with a factory
#: producing a live instance (slots only matter on instances: a class
#: in the MRO without __slots__ gives every instance a __dict__)
HOT_PATH_INSTANCES = {
    ScheduledEvent: lambda: Simulator().schedule(1.0, lambda: None),
    _PendingSM: lambda: _PendingSM(0, object(), 0.0, 0),
    _PendingRM: lambda: _PendingRM(0, object(), 0.0, 0),
    _PendingFM: lambda: _PendingFM(0, object(), 0.0, 0),
    ChannelStats: ChannelStats,
    DataPacket: lambda: DataPacket(0, object(), 1.0),
    AckPacket: lambda: AckPacket(0),
    PiggybackEntry: lambda: PiggybackEntry(0, 1, frozenset()),
    OptTrackLog: OptTrackLog,
    TupleLog: TupleLog,
    MatrixClock: lambda: MatrixClock(2),
    VectorClock: lambda: VectorClock(2),
    RunningStat: RunningStat,
    TraceEvent: lambda: TraceEvent(id=1, kind="x", site=0, ts=0.0),
    _MsgState: lambda: _MsgState(payload=object(), send_id=1, src=0, dst=1),
}


@pytest.mark.parametrize(
    "cls", HOT_PATH_INSTANCES, ids=lambda c: f"{c.__module__}.{c.__name__}"
)
def test_hot_path_instance_has_no_dict(cls):
    instance = HOT_PATH_INSTANCES[cls]()
    assert not hasattr(instance, "__dict__"), (
        f"{cls.__name__} instances grew a __dict__ — some class in its "
        f"MRO lost __slots__"
    )


def test_pending_subclasses_declare_empty_slots():
    # the base carries the fields; subclasses must add none implicitly
    for sub in (_PendingSM, _PendingRM, _PendingFM):
        assert sub.__slots__ == ()
        assert issubclass(sub, _Pending)


def test_pending_kinds_are_distinct():
    # the drain machinery indexes dirty lists by this class attribute
    kinds = {_PendingSM.kind, _PendingRM.kind, _PendingFM.kind}
    assert kinds == {0, 1, 2}


def test_channel_packets_are_immutable_values():
    # one per physical transmission on the chaos path: built as cheaply
    # as a tuple, still frozen and compared by value
    payload = object()
    data, ack = DataPacket(3, payload, 20.0), AckPacket(3)
    assert data == DataPacket(3, payload, 20.0) != DataPacket(4, payload, 20.0)
    assert ack == AckPacket(3) != AckPacket(4) and ack != data
    assert (data.seq, data.payload, data.size_bytes) == (3, payload, 20.0)
    for packet, field in ((data, "seq"), (ack, "cumulative")):
        with pytest.raises(AttributeError):
            setattr(packet, field, 9)
