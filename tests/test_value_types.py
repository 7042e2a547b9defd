"""The value-type contract of :func:`repro.memory.value.value_type`.

Every type the helper builds must behave exactly like the stock
``@dataclass(frozen=True, slots=True)`` it replaces — only the cost of
``__init__`` may differ — and every frozen dataclass on the message,
log, store and history paths must come from the helper, so a new wire
type cannot fall back to the slow constructor unnoticed.
"""

import copy
import inspect
import pickle
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    is_dataclass,
    replace,
)

import pytest

import repro.core.log
import repro.core.messages
import repro.memory.store
import repro.verify.history
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry, PiggybackView
from repro.core.messages import (
    CRPSM,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)
from repro.memory.store import WriteId
from repro.memory.value import value_type
from repro.verify.history import EventKind, EventRecord

E1 = PiggybackEntry(0, 1, frozenset({2}))
E2 = PiggybackEntry(3, 4, frozenset())

#: every type the helper builds, with two distinct argument tuples
SAMPLES = {
    WriteId: [(1, 2), (1, 3)],
    PiggybackEntry: [(0, 1, frozenset({2})), (0, 1, frozenset())],
    FetchMessage: [(1, 2, 3), (1, 2, 3, ((0, 1),))],
    FullTrackSM: [(1, "v", WriteId(0, 1), MatrixClock(2)),
                  (1, "v", WriteId(0, 1), MatrixClock(2), 5.0)],
    FullTrackRM: [(1, "v", WriteId(0, 1), MatrixClock(2), 7),
                  (1, None, None, MatrixClock(2), 7)],
    OptTrackSM: [(1, "v", WriteId(0, 1), (E1, E2)),
                 (1, "v", WriteId(0, 1), (E1,), 2.5)],
    OptTrackRM: [(1, "v", WriteId(0, 1), (E1, E2), 9),
                 (1, None, None, (), 9)],
    CRPSM: [(1, "v", WriteId(0, 1), ((0, 1),)),
            (1, "v", WriteId(0, 1), ((0, 1), (2, 3)), 1.0)],
    OptPSM: [(1, "v", WriteId(0, 1), VectorClock(3)),
             (2, "v", WriteId(0, 1), VectorClock(3))],
    EventRecord: [(EventKind.APPLY, 1.0, 0),
                  (EventKind.WRITE_OP, 2.0, 1, 3, "v", (1, 1), 4, "", (0, 2))],
}

IDS = [cls.__name__ for cls in SAMPLES]


def _stock_twin(cls):
    """The same class built by the stock ``dataclass`` decorator."""
    ns = {"__annotations__": {f.name: f.type for f in fields(cls)},
          "__qualname__": cls.__qualname__, "__module__": cls.__module__}
    for f in fields(cls):
        if f.default is not MISSING:
            ns[f.name] = f.default
    if "__post_init__" in cls.__dict__:
        ns["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclass(frozen=True, slots=True,
                     order=cls.__dataclass_params__.order)(
        type(cls.__name__, cls.__bases__, ns))


def _from_helper(cls) -> bool:
    """Whether ``cls.__init__`` writes every slot through its member
    descriptor (the helper's ``__init__``, not the stock one)."""
    init_globals = getattr(cls.__init__, "__globals__", {})
    return all(init_globals.get(f"_set_{f.name}") == cls.__dict__[f.name].__set__
               for f in fields(cls))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
class TestValueTypeContract:
    def test_assignment_raises_frozen_instance_error(self, cls):
        value = cls(*SAMPLES[cls][0])
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, f.name)
        assert not hasattr(value, "__dict__")

    def test_matches_the_stock_dataclass(self, cls):
        stock = _stock_twin(cls)
        assert _from_helper(cls) and not _from_helper(stock)
        assert [f.name for f in fields(cls)] == [f.name for f in fields(stock)]
        assert inspect.signature(cls) == inspect.signature(stock)
        ours = [cls(*args) for args in SAMPLES[cls]]
        theirs = [stock(*args) for args in SAMPLES[cls]]
        for a, b in zip(ours, theirs):
            assert repr(a) == repr(b)
            assert _hash_or_error(a) == _hash_or_error(b)
        for i, a in enumerate(ours):
            for j, b in enumerate(ours):
                assert (a == b) == (theirs[i] == theirs[j]) == (i == j)
                assert a == cls(*SAMPLES[cls][i])

    def test_keyword_and_default_arguments(self, cls):
        for args in SAMPLES[cls]:
            names = [f.name for f in fields(cls)]
            assert cls(**dict(zip(names, args))) == cls(*args)
            for f in fields(cls)[len(args):]:
                assert getattr(cls(*args), f.name) == f.default

    def test_missing_or_extra_argument_raises_type_error(self, cls):
        required = [f for f in fields(cls) if f.default is MISSING]
        full = SAMPLES[cls][0] + tuple(
            f.default for f in fields(cls)[len(SAMPLES[cls][0]):])
        with pytest.raises(TypeError):
            cls(*full[:len(required) - 1])
        with pytest.raises(TypeError):
            cls(*full, None)
        with pytest.raises(TypeError):
            cls(*full[:len(required)], no_such_field=1)

    def test_replace_pickle_and_deepcopy_round_trip(self, cls):
        for args in SAMPLES[cls]:
            value = cls(*args)
            assert replace(value) == value
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.deepcopy(value) == value
            assert copy.copy(value) == value
        first, second = (cls(*args) for args in SAMPLES[cls])
        changed = {f.name: getattr(second, f.name) for f in fields(cls)
                   if getattr(first, f.name) != getattr(second, f.name)}
        assert changed and replace(first, **changed) == second


def test_write_id_order_matches_the_stock_dataclass():
    stock = _stock_twin(WriteId)
    pairs = [(2, 1), (0, 5), (1, 2), (0, 1), (1, 1), (2, 0)]
    assert [w.as_tuple() for w in sorted(WriteId(*p) for p in pairs)] == \
        [(w.site, w.clock) for w in sorted(stock(*p) for p in pairs)]
    for a in pairs:
        for b in pairs:
            ours, theirs = (WriteId(*a), WriteId(*b)), (stock(*a), stock(*b))
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(ours[0], op)(ours[1]) == \
                    getattr(theirs[0], op)(theirs[1])


def test_opt_track_sm_wraps_a_flat_log_into_a_view():
    flat = (E1, E2)
    sm = OptTrackSM(1, "v", WriteId(0, 1), flat)
    assert isinstance(sm.log, PiggybackView) and sm.log == flat
    assert OptTrackSM(var=1, value="v", write_id=WriteId(0, 1),
                      log=list(flat)).log == flat
    # a view is kept as is
    assert OptTrackSM(1, "v", WriteId(0, 1), sm.log).log is sm.log
    assert replace(sm).log == flat
    assert pickle.loads(pickle.dumps(sm)) == sm


def test_value_type_keeps_post_init_and_rejects_what_it_cannot_build():
    @value_type
    class Checked:
        x: int
        y: int = 2

        def __post_init__(self) -> None:
            if self.x < 0:
                raise ValueError("negative")

    assert Checked(1) == Checked(x=1, y=2) and Checked(1).y == 2
    with pytest.raises(ValueError):
        Checked(-1)
    for spec in (field(default_factory=list), field(default=0, init=False),
                 field(default=0, kw_only=True)):
        with pytest.raises(TypeError):
            value_type(type("Bad", (), {"__annotations__": {"x": "int"},
                                        "x": spec}))


#: the modules whose frozen dataclasses are all hot value types
VALUE_MODULES = (repro.core.messages, repro.core.log, repro.memory.store,
                 repro.verify.history)


def test_every_frozen_dataclass_on_the_value_paths_uses_the_helper():
    found = {
        obj for module in VALUE_MODULES for obj in vars(module).values()
        if isinstance(obj, type) and is_dataclass(obj)
        and obj.__module__ == module.__name__
        and obj.__dataclass_params__.frozen
    }
    assert found == set(SAMPLES)
    assert [cls.__name__ for cls in found if not _from_helper(cls)] == []
