"""Wire-codec contract tests: WIRE_FIELDS registry, the binary layout,
round-trip fidelity and typed refusal of every malformed byte string."""

import dataclasses
import struct

import pytest

from repro.check.sanitizer import fingerprint
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import OptTrackLog, PiggybackEntry, PiggybackView
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
from repro.service.codec import (
    ACK,
    DATA,
    HEAD_SIZE,
    HELLO,
    MAX_FRAME_BYTES,
    WIRE_FIELDS,
    WIRE_VERSION,
    CodecError,
    ack_frame,
    check_value,
    data_frame,
    dumps,
    frame_head,
    hello_frame,
    loads,
    pack_frame,
    unpack_length,
)

from .test_protocol_ordering import make_proto

ALL_MESSAGE_TYPES = (
    FetchMessage, FullTrackSM, FullTrackRM,
    OptTrackSM, OptTrackRM, CRPSM, OptPSM,
)

#: a message's type code is its position in WIRE_FIELDS
CODE = {cls: code for code, cls in enumerate(WIRE_FIELDS)}


def raw(cls, ints, *runs, width=8):
    """Message bytes as the layout spells them, whatever they say: the
    type code, the int column's width and length, the column, then the
    byte runs (the value, the issue time)."""
    return (struct.pack(">BBI", CODE[cls], width, len(ints))
            + b"".join(v.to_bytes(width, "big", signed=True) for v in ints)
            + b"".join(runs))


def column(data):
    """(width, ints) of the int column that opens a message's bytes."""
    _, width, count = struct.unpack_from(">BBI", data)
    return width, [int.from_bytes(data[6 + k:6 + k + width], "big",
                                  signed=True)
                   for k in range(0, width * count, width)]


def value_run(tag, payload=b""):
    return bytes((tag,)) + payload


def sized_run(tag, payload):
    return struct.pack(">BI", tag, len(payload)) + payload


NONE, FALSE, TRUE, INT, FLOAT, STR, JSON = range(7)
TWO = value_run(INT, b"\x01\x02")  # the value 2
TIME = struct.pack(">d", 1.5)
#: a CRPSM: var 1, write <0,1>, one pair (0,1); value 2, issued at 1.5
CRP_INTS = [1, 0, 1, 1, 0, 1]
#: an OptTrackSM: var 1, write <0,1>, the log <0,1,{1}>
OPT_INTS = [1, 0, 1, 1, 1, 0, 1, 1, 1]

#: well-framed bytes no constructor can build (also fed, inside data
#: frames, to a live transport by tests/test_service_channel.py)
ILL_SHAPED_MESSAGES = (
    raw(CRPSM, CRP_INTS + [9], TWO, TIME),          # an int after the last
    raw(CRPSM, CRP_INTS, TWO, TIME, b"\x00"),       # a byte after the last
    raw(CRPSM, CRP_INTS[:-1], TWO, TIME),           # the column ends early
    raw(CRPSM, [1, 0, 1, 2, 0, 1], TWO, TIME),      # two pairs promised
    raw(CRPSM, [1, 0, 1, -1, 0, 1], TWO, TIME),     # a negative count
    raw(CRPSM, CRP_INTS, TWO),                      # no issue time
    raw(CRPSM, CRP_INTS, TWO, TIME[:5]),            # half an issue time
    struct.pack(">BBI", CODE[CRPSM], 0, 6) + TWO + TIME,  # a column of width 0
    raw(CRPSM, CRP_INTS, value_run(9), TIME),       # an unknown value tag
    raw(CRPSM, CRP_INTS, value_run(INT, b"\x00"), TIME),  # int of width 0
    raw(CRPSM, CRP_INTS, sized_run(STR, b"\xff\xfe"), TIME),  # not UTF-8
    raw(CRPSM, CRP_INTS, struct.pack(">BI", STR, 99) + b"ab", TIME),
    raw(CRPSM, CRP_INTS, sized_run(JSON, b"5"), TIME),  # not a list/dict
    raw(CRPSM, CRP_INTS, sized_run(JSON, b"[1,"), TIME),
    raw(CRPSM, CRP_INTS, sized_run(JSON, b"[NaN]"), TIME),
    raw(CRPSM, CRP_INTS, sized_run(JSON, b'["\xc3\xa9"]'), TIME),  # no ASCII
    raw(CRPSM, CRP_INTS, value_run(FLOAT, struct.pack(">d", float("nan"))),
        TIME),
    raw(CRPSM, CRP_INTS, TWO, struct.pack(">d", float("inf"))),
    raw(CRPSM, CRP_INTS, TWO, struct.pack(">d", float("nan"))),
    # the log's two counts against its four columns
    raw(OptTrackSM, OPT_INTS[:-1], TWO, TIME),      # a destination short
    raw(OptTrackSM, [1, 0, 1, 1, 2, 0, 1, 1, 1, 2], TWO, TIME),  # sizes 1 != 2
    raw(OptTrackSM, [1, 0, 1, 2, 1, 0, 0, 1, 1, -1, 2, 1], TWO, TIME),
    raw(OptTrackSM, [1, 0, 1, 1000, 1, 0, 1, 1, 1], TWO, TIME),
    raw(OptTrackSM, [1, 0, 1, -1, 1, 0, 1, 1, 1], TWO, TIME),
    raw(OptTrackSM, [1, 0, 1, 1, -1, 0, 1, 1, 1], TWO, TIME),
    # "never written" is a flag of 0 or 1, and only an RM has one
    raw(OptTrackRM, [1, 2, 0, 1, 0, 0, 7], TWO),
    raw(OptTrackRM, [1, -1, 0, 0, 7], TWO),
    raw(OptTrackSM, [1, 0, 0, 0], TWO, TIME),
    # a site numbers its writes from 1
    raw(CRPSM, [1, 0, 0, 1, 0, 1], TWO, TIME),
    raw(OptTrackRM, [1, 1, 0, -3, 0, 0, 7], TWO),
    # clocks: a width, then its cells, none negative
    raw(FullTrackSM, [1, 0, 1, 0], TWO, TIME),
    raw(FullTrackSM, [1, 0, 1, -2, 0, 0, 0, 0], TWO, TIME),
    raw(FullTrackSM, [1, 0, 1, 2, 0, 0, 0], TWO, TIME),
    raw(FullTrackSM, [1, 0, 1, 1, -5], TWO, TIME),
    raw(OptPSM, [1, 0, 1, 2, 1], TWO, TIME),
    raw(OptPSM, [1, 0, 1, 1, 2 ** 63], TWO, TIME, width=9),  # no int64 cell
    # an optP SM whose write id is not its vector's entry for the writer
    # (the gate reads the vector, the apply the write id)
    raw(OptPSM, [1, 0, 2, 1, 1], TWO, TIME),
    raw(OptPSM, [1, 1, 1, 1, 1], TWO, TIME),
    # no such type
    struct.pack(">BBI", 7, 1, 0),
    struct.pack(">BBI", 255, 1, 0),
)


def _matrix(n=3):
    m = MatrixClock(n)
    m.m[0][1] = 4
    m.m[2][2] = 9
    return m


def _vector(n=3):
    v = VectorClock(n)
    v.v[1] = 7
    return v


def _log():
    return (
        PiggybackEntry(0, 3, frozenset({1, 2})),
        PiggybackEntry(2, 5, frozenset({0})),
    )


#: one representative instance per sendable type, exercising every
#: field kind (WriteId, clocks, logs, pairs, None, floats, JSON values)
SAMPLES = [
    FetchMessage(var=3, reader=1, request_id=17,
                 requirements=((0, 2), (2, 5))),
    FullTrackSM(var=0, value="v0", write_id=WriteId(0, 1),
                matrix=_matrix(), issued_at=12.5),
    FullTrackRM(var=1, value=None, write_id=None,
                matrix=_matrix(), request_id=4),
    OptTrackSM(var=2, value=41, write_id=WriteId(1, 2),
               log=_log(), issued_at=0.0),
    OptTrackRM(var=2, value={"k": [1, 2]}, write_id=WriteId(2, 9),
               log=_log(), request_id=8),
    CRPSM(var=5, value=3.25, write_id=WriteId(2, 3),
          log=((0, 3), (2, 5)), issued_at=99.0),
    OptPSM(var=4, value=True, write_id=WriteId(1, 7),
           vector=_vector(), issued_at=7.0),
]


def _long_log(n=157):
    return tuple(PiggybackEntry(k % 5, k + 1, frozenset({k % 3, (k + 1) % 5}))
                 for k in range(n))


def _view_with_delta():
    """The view one destination of a real multicast gets: a regained
    record and a dead extra, not a wrapped flat tuple."""
    log = OptTrackLog()
    log.insert(0, 1, {0, 1, 2})
    log.insert(0, 2, {2})
    log.insert(2, 1, {1})
    log.insert(2, 3, {0})
    views, _ = log.piggyback_views(frozenset({1, 2}))
    assert views[1].regain and views[1].extra
    return views[1]


#: the column forms at their edges (ids below, one per entry)
LOG_SAMPLES = [
    OptTrackRM(var=2, value=None, write_id=None, log=(), request_id=1),
    OptTrackSM(var=2, value=1, write_id=WriteId(1, 2), log=()),
    OptTrackSM(var=1, value="v", write_id=WriteId(2, 4),
               log=_view_with_delta()),
    OptTrackRM(var=2, value=1, write_id=WriteId(0, 2 ** 70), request_id=1,
               log=(PiggybackEntry(0, 2 ** 70, frozenset({1})),
                    PiggybackEntry(1, 7, frozenset()))),
    OptTrackSM(var=2, value=1, write_id=WriteId(1, 200), log=_long_log()),
    OptTrackRM(var=2, value=1, write_id=WriteId(1, 200), log=_long_log(),
               request_id=3),
    CRPSM(var=0, value=1, write_id=WriteId(0, 1), log=()),
    CRPSM(var=0, value=1, write_id=WriteId(0, 1),
          log=tuple((k % 5, 2 ** 70 + k) for k in range(40))),
]
LOG_SAMPLE_IDS = ["rm-empty", "sm-empty", "sm-view-delta", "rm-2^70",
                  "sm-157", "rm-157", "crp-empty", "crp-40"]

#: well-shaped messages naming a site a 3-node cluster does not have
OUT_OF_MEMBERSHIP = [
    OptTrackSM(var=0, value=1, write_id=WriteId(1, 1),
               log=(PiggybackEntry(99, 1, frozenset({0})),)),
    OptTrackSM(var=0, value=1, write_id=WriteId(1, 1),
               log=(PiggybackEntry(1, 1, frozenset({0, 3})),)),
    OptTrackSM(var=0, value=1, write_id=WriteId(1, 1),
               log=(PiggybackEntry(-1, 1, frozenset({0})),)),
    OptTrackSM(var=0, value=1, write_id=WriteId(77, 1), log=()),
    OptTrackRM(var=0, value=1, write_id=WriteId(1, 1), request_id=1,
               log=(PiggybackEntry(1, 1, frozenset({-2})),)),
    FetchMessage(var=0, reader=3, request_id=1),
    FetchMessage(var=0, reader=1, request_id=1, requirements=((5, 1),)),
    CRPSM(var=0, value=1, write_id=WriteId(1, 1), log=((0, 1), (3, 1))),
    FullTrackSM(var=0, value=1, write_id=WriteId(1, 1), matrix=_matrix(4)),
    FullTrackRM(var=0, value=1, write_id=None, matrix=MatrixClock(2),
                request_id=1),
    OptPSM(var=0, value=1, write_id=WriteId(1, 7), vector=_vector(4)),
]


def layout(message):
    """The int column of ``message`` spelled out field by field, each int
    with its role: ``int`` (a var, a request id), ``site``, ``clock`` (a
    write's number, a clock cell), ``flag`` ("never written"), ``count``
    (of records, destinations, pairs; a record's destinations) or
    ``width`` (of a clock)."""
    out = []
    for name in WIRE_FIELDS[type(message)]:
        value = getattr(message, name)
        if name in ("value", "issued_at"):
            continue
        if name == "write_id":
            if type(message).__name__.endswith("RM"):
                out.append(("flag", int(value is not None)))
            if value is not None:
                out += [("site", value.site), ("clock", value.clock)]
        elif name == "log" and type(message) is not CRPSM:
            records = tuple(value)
            dests = [sorted(e.dests) for e in records]
            out += [("count", len(records)), ("count", sum(map(len, dests)))]
            out += [("site", e.writer) for e in records]
            out += [("clock", e.clock) for e in records]
            out += [("count", len(d)) for d in dests]
            out += [("site", d) for ds in dests for d in ds]
        elif name in ("log", "requirements"):
            out += [("count", len(value))] + [("site", w) for w, _ in value]
            out += [("clock", c) for _, c in value]
        elif name == "matrix":
            out += [("width", value.n)]
            out += [("clock", c) for c in value.m.ravel().tolist()]
        elif name == "vector":
            out += [("width", value.n)] + [("clock", c) for c in value.v.tolist()]
        else:
            out.append(("site" if name == "reader" else "int", value))
    return out


class TestRegistry:
    def test_every_sendable_type_is_registered(self):
        assert set(WIRE_FIELDS) == set(ALL_MESSAGE_TYPES)

    def test_registry_matches_dataclass_fields_exactly(self):
        # a field added/renamed/reordered on a message without a codec
        # update must fail HERE, not corrupt frames on the wire
        for cls, wire_fields in WIRE_FIELDS.items():
            declared = tuple(f.name for f in dataclasses.fields(cls))
            assert wire_fields == declared, cls.__name__

    def test_every_type_has_a_sample(self):
        assert {type(s) for s in SAMPLES} == set(ALL_MESSAGE_TYPES)

    @pytest.mark.parametrize("message", SAMPLES + LOG_SAMPLES,
                             ids=lambda m: type(m).__name__)
    def test_the_int_column_holds_the_int_fields_in_wire_order(
            self, message):
        data = dumps(message)
        assert data[0] == CODE[type(message)]
        width, ints = column(data)
        assert ints == [value for _, value in layout(message)]
        # the narrowest of 1, 2, 4, 8 bytes, or what the widest int needs
        top = max(max(ints), ~min(ints))
        assert width == next(w for w in (1, 2, 4, 8, 9, 10)
                             if top < 1 << (8 * w - 1))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_message_roundtrips_equal_and_fingerprinted(self, message):
        decoded = loads(dumps(message))
        assert type(decoded) is type(message)
        assert decoded == message
        # structural fingerprint (PR-4 sanitizer): catches lookalikes
        # __eq__ would accept, e.g. list-vs-tuple or int-vs-float drift
        assert fingerprint(decoded) == fingerprint(message)

    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_encoding_is_canonical(self, message):
        # equal values encode to identical bytes (and re-encoding the
        # decoded copy is byte-stable)
        first = dumps(message)
        assert dumps(loads(first)) == first

    def test_view_and_flat_log_encode_to_equal_bytes(self):
        # the wire carries the flat sequence: an SM built from a
        # piggyback view and one built from its flat tuple are the same
        # frame, and the decoded copy gates and applies at its receiver
        log = OptTrackLog()
        log.insert(0, 1, {0, 1, 2})  # stays live: both copies regain it
        log.insert(0, 2, {2})  # newest from 0: ships as a marker
        log.insert(2, 1, {1})  # dies under stripping: rides to 1 only
        log.insert(2, 3, {0})
        views, _ = log.piggyback_views(frozenset({1, 2}))
        wid = WriteId(2, 4)
        viewed = OptTrackSM(var=1, value="v", write_id=wid, log=views[1])
        flat = OptTrackSM(var=1, value="v", write_id=wid,
                          log=tuple(views[1]))
        assert dumps(viewed) == dumps(flat)
        decoded = loads(dumps(viewed))
        assert decoded == viewed and tuple(decoded.log) == tuple(views[1])

        proto, ctx = make_proto("opt-track", site=1)
        assert proto._sm_blocker(2, decoded) == (0, 1)
        proto.applied[0] = 1
        assert proto._sm_blocker(2, decoded) == (2, 1)
        proto.applied[2] = 1
        assert proto._sm_blocker(2, decoded) is None
        proto._apply_sm(2, decoded)
        assert ctx.store.read(1).value == "v"
        # stored with this site stripped; the dead extra stays, emptied
        assert proto.last_write_on[1][-1] == (
            PiggybackEntry(0, 1, frozenset({0})),
            PiggybackEntry(0, 2, frozenset()),
            PiggybackEntry(2, 3, frozenset({0})),
            PiggybackEntry(2, 1, frozenset()),
        )

    @pytest.mark.parametrize("message", LOG_SAMPLES, ids=LOG_SAMPLE_IDS)
    def test_log_forms_roundtrip(self, message):
        first = dumps(message)
        decoded = loads(first)
        assert type(decoded) is type(message) and decoded == message
        assert type(decoded.log) is type(message.log)
        assert fingerprint(decoded) == fingerprint(message)
        assert dumps(decoded) == first
        # nothing per record but its ints: past the opening and the
        # column, only the value and (an SM's) issue time are left
        width, ints = column(first)
        value = {None: value_run(NONE), 1: value_run(INT, b"\x01\x01"),
                 "v": sized_run(STR, b"v")}[message.value]
        time = struct.pack(">d", 0.0) if hasattr(message, "issued_at") else b""
        assert first[6 + width * len(ints):] == value + time

    def test_empty_log_stays_empty(self):
        rm = loads(dumps(LOG_SAMPLES[0]))
        assert rm.log == () and type(rm.log) is tuple
        sm = loads(dumps(LOG_SAMPLES[1]))
        assert type(sm.log) is PiggybackView and len(sm.log) == 0

    def test_a_log_is_three_columns_of_plain_ints(self):
        # (columns: writers, clocks and destinations -- the last as each
        # record's count and then the destinations themselves)
        data = dumps(SAMPLES[3])  # the OptTrackSM
        assert data == (raw(OptTrackSM, [
            2, 1, 2,              # var, write <1,2>
            2, 3,                 # two records naming three destinations
            0, 2,                 # writers
            3, 5,                 # clocks
            2, 1,                 # destinations per record
            1, 2, 0,              # the destinations, sorted per record
        ], value_run(INT, b"\x01\x29"), struct.pack(">d", 0.0), width=1))
        data = dumps(SAMPLES[0])  # the FM's requirement pairs
        assert data == raw(FetchMessage, [3, 1, 17, 2, 0, 2, 2, 5], width=1)

    def test_records_mixed_with_anything_else_do_not_encode(self):
        entry = PiggybackEntry(0, 1, frozenset({1}))
        for log in ((entry, (0, 1)), ((0, 1), entry), (entry, None)):
            with pytest.raises(CodecError, match="cannot encode"):
                dumps(OptTrackRM(var=0, value=1, write_id=None,
                                 log=log, request_id=1))
        with pytest.raises(CodecError, match="cannot encode"):
            _carried(entry)  # no lone record is ever sent
        with pytest.raises(CodecError, match="cannot encode"):
            dumps(CRPSM(var=0, value=1, write_id=WriteId(0, 1), log=_log()))

    def test_site_ids_outside_the_membership_are_refused(self):
        # decode takes the cluster size from whoever knows it
        for message in SAMPLES:
            data = dumps(message)
            assert loads(data, 3) == message
        for message in OUT_OF_MEMBERSHIP:
            data = dumps(message)
            assert loads(data) == message  # shape alone is fine
            with pytest.raises(CodecError):
                loads(data, 3)
        fm = FetchMessage(var=0, reader=1, request_id=1,
                          requirements=((99, 1),))
        with pytest.raises(CodecError, match="site id"):
            loads(dumps(fm), 3)
        # the value is the client's: nothing in it is a site id
        odd = OptTrackRM(var=0, value=[[99, 1]], write_id=None, log=(),
                         request_id=1)
        assert loads(dumps(odd), 3) == odd

    def test_unknown_type_is_loud(self):
        class Rogue:
            pass

        with pytest.raises(CodecError, match="not a registered wire type"):
            dumps(Rogue())

    def test_field_count_mismatch_is_loud(self):
        assert loads(raw(CRPSM, CRP_INTS, TWO, TIME)) == CRPSM(
            var=1, value=2, write_id=WriteId(0, 1), log=((0, 1),),
            issued_at=1.5)
        with pytest.raises(CodecError, match="after the last field"):
            loads(raw(CRPSM, CRP_INTS + [0], TWO, TIME))
        with pytest.raises(CodecError, match="after the last field"):
            loads(dumps(SAMPLES[0]) + b"\x00")


def _carried(value):
    """``value`` after a trip inside a data frame, as a read's answer."""
    rm = OptTrackRM(var=0, value=value, write_id=None, log=(), request_id=1)
    frame = data_frame(0, 1, dumps(rm))
    return loads(frame, 3, HEAD_SIZE).value


class TestValueAlgebra:
    @pytest.mark.parametrize("value", [
        None, True, 0, -3, 2.5, "x", [1, "a"], {"k": 1},
        [2 ** 70, -(2 ** 70)], {"s": "ünï ☃", "n": [None, False, 1.5]},
        [], {"!weird": 1, "!!worse": 2},  # keys once reserved for tags
        False, "", "☃" * 1000, 2 ** 70, -(2 ** 63), 2 ** 63, 1e-300,
        -0.0, {"": {"": []}},
    ])
    def test_values_roundtrip(self, value):
        carried = _carried(value)
        assert carried == value
        assert fingerprint(carried) == fingerprint(value)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CodecError, match="keys must be strings"):
            _carried({1: "x"})
        with pytest.raises(CodecError, match="keys must be strings"):
            check_value([{"k": {None: 1}}])

    def test_nan_rejected(self):
        # where the client's JSON parser lets them through, and in the
        # one float of the protocol's own
        for bad in (float("nan"), float("inf"), -float("inf"),
                    [1, float("nan")], {"k": float("inf")}):
            with pytest.raises(CodecError):
                check_value(bad)
            with pytest.raises(CodecError):
                _carried(bad)
        with pytest.raises(CodecError, match="time"):
            dumps(CRPSM(var=0, value=1, write_id=WriteId(0, 1), log=(),
                        issued_at=float("nan")))

    def test_values_that_are_not_json_do_not_encode(self):
        for bad in ((1, 2), frozenset({1}), WriteId(0, 1), b"x", {1, 2},
                    [(1, 2)], "\ud800", 2 ** 3000):
            with pytest.raises(CodecError):
                check_value(bad)
        deep = []
        for _ in range(5_000):
            deep = [deep]
        with pytest.raises(CodecError):
            check_value(deep)

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown value tag"):
            loads(raw(CRPSM, CRP_INTS, value_run(9), TIME))


class TestFraming:
    def test_frame_roundtrip(self):
        frame = pack_frame(ack_frame(1, 9))
        size = unpack_length(frame[:4])
        assert size == HEAD_SIZE == 11
        assert frame_head(frame[4:4 + size]) == (ACK, 1, 9)

    @pytest.mark.parametrize("message", SAMPLES + LOG_SAMPLES,
                             ids=lambda m: type(m).__name__)
    def test_spliced_data_frame_is_canonical(self, message):
        body = dumps(message)
        frame = data_frame(4, 2 ** 40, body)
        # the head, then the message's bytes as they are: not walked again
        assert frame == b"D\x00\x04" + (2 ** 40).to_bytes(8, "big") + body
        assert frame_head(frame) == (DATA, 4, 2 ** 40)
        assert loads(frame, None, HEAD_SIZE) == message
        assert dumps(loads(frame, None, HEAD_SIZE)) == body

    def test_ack_and_hello_templates_are_canonical(self):
        for frame, head, spelled in [
            (ack_frame(3, -1), (ACK, 3, -1), b"A\x00\x03" + b"\xff" * 8),
            (ack_frame(0, 2 ** 62), (ACK, 0, 2 ** 62),
             b"A\x00\x00@" + b"\x00" * 7),
            (hello_frame(12), (HELLO, 12, WIRE_VERSION),
             b"H\x00\x0c" + b"\x00" * 7 + b"\x03"),
        ]:
            assert frame == spelled and frame_head(frame) == head
        # v1 tagged every record and sized frames, v2 was canonical JSON
        assert WIRE_VERSION == 3

    def test_pack_frame_caps_the_payload(self, monkeypatch):
        monkeypatch.setattr("repro.service.codec.MAX_FRAME_BYTES", 8)
        assert pack_frame(b"12345678")[:4] == b"\x00\x00\x00\x08"
        with pytest.raises(CodecError, match="exceeds the cap"):
            pack_frame(b"123456789")

    def test_length_cap_enforced(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(CodecError, match="exceeds the cap"):
            unpack_length(huge)

    @pytest.mark.parametrize("payload", [
        raw(CRPSM, CRP_INTS, value_run(INT, b"\x00"), TIME),  # int, no digits
        raw(CRPSM, CRP_INTS, sized_run(JSON, b"[" * 100_000 + b"]" * 100_000),
            TIME),                                            # parser's stack
        raw(CRPSM, CRP_INTS, sized_run(STR, b"\xff\xfe"), TIME),  # not UTF-8
        raw(CRPSM, CRP_INTS, TWO, struct.pack(">d", float("nan"))),
        raw(CRPSM, CRP_INTS, value_run(FLOAT, struct.pack(">d", -float("inf"))),
            TIME),
        raw(CRPSM, CRP_INTS, sized_run(JSON, b"[1e999]"), TIME),  # overflow
        b"", b"\x00", raw(CRPSM, CRP_INTS, TWO, TIME)[:-1],
        raw(CRPSM, CRP_INTS, TWO, TIME) + b"x",
    ], ids=["digits", "depth", "utf", "nan", "-inf", "1e999", "empty", "nul",
            "truncated", "trailing"])
    def test_loads_fails_typed(self, payload):
        # not ValueError / RecursionError / UnicodeDecodeError /
        # struct.error: the channel catches CodecError, and what the
        # encoder refuses to write the decoder refuses to read
        with pytest.raises(CodecError) as refused:
            loads(payload)
        assert type(refused.value) is CodecError

    def test_nesting_too_deep_for_any_stage_is_codec_error(self):
        # a client's value may nest; how deep the JSON parser gets before
        # the interpreter stops it depends on its version, so: at every
        # depth, a message or a CodecError
        outcomes = []
        for depth in (50, 400, 600, 900, 1_200, 3_000, 20_000):
            blob = b"[" * depth + b"]" * depth
            try:
                outcomes.append(type(loads(
                    raw(CRPSM, CRP_INTS, sized_run(JSON, blob), TIME))))
            except CodecError:
                outcomes.append(CodecError)
        assert outcomes[0] is CRPSM and outcomes[-2:] == [CodecError] * 2
        assert set(outcomes) == {CRPSM, CodecError}

    def test_malformed_payload_is_codec_error(self):
        assert loads(raw(OptTrackSM, OPT_INTS, TWO, TIME), 3).log == (
            PiggybackEntry(0, 1, frozenset({1})),)
        # well-framed but ill-shaped: the readers' and constructors' own
        # struct.error / IndexError / ValueError must not be what a
        # peer's bytes raise
        for data in ILL_SHAPED_MESSAGES:
            with pytest.raises(CodecError):
                loads(data)
            with pytest.raises(CodecError):
                loads(data_frame(1, 0, data), None, HEAD_SIZE)

    @pytest.mark.parametrize("frame", [
        b"", b"D", b"D\x00\x01" + b"\x00" * 7, b"X" + b"\x00" * 10,
        b'{"k":"ack","src":1,"cum":0}',
    ], ids=["empty", "kind-only", "short", "unknown-kind", "json"])
    def test_frame_head_refuses_what_this_format_does_not_open_with(
            self, frame):
        with pytest.raises(CodecError, match="no frame head"):
            frame_head(frame)
