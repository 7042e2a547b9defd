"""Wire-codec contract tests: WIRE_FIELDS registry + round-trip fidelity."""

import dataclasses
import json

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
    MAX_FRAME_BYTES,
    WIRE_FIELDS,
    WIRE_VERSION,
    CodecError,
    ack_frame,
    data_frame,
    decode_message,
    dumps,
    encode_message,
    hello_frame,
    loads,
    message_from_wire,
    message_to_wire,
    pack_frame,
    unpack_length,
)

from .test_protocol_ordering import make_proto

ALL_MESSAGE_TYPES = (
    FetchMessage, FullTrackSM, FullTrackRM,
    OptTrackSM, OptTrackRM, CRPSM, OptPSM,
)


def _wire_with(message: object, field: str, wire_value: object) -> dict:
    """The wire form of ``message`` with one field's encoding replaced."""
    wire = message_to_wire(message)
    wire["f"][WIRE_FIELDS[type(message)].index(field)] = wire_value
    return wire


def _crp_sm_with(field: str, wire_value: object) -> dict:
    return _wire_with(CRPSM(var=1, value=2, write_id=WriteId(0, 1),
                            log=((0, 1),)), field, wire_value)


def _opt_sm_with(field: str, wire_value: object) -> dict:
    """An OptTrackSM's log is records, not pairs."""
    return _wire_with(OptTrackSM(
        var=1, value=2, write_id=WriteId(0, 1),
        log=(PiggybackEntry(0, 1, frozenset({1})),)), field, wire_value)


def _log_columns(w=(0, 2), c=(3, 5), d=((1, 2), (0,))) -> dict:
    return {"!": "log", "w": list(w), "c": list(c),
            "d": [list(x) if isinstance(x, tuple) else x for x in d]}


#: well-tagged values no constructor can build (also fed, inside data
#: frames, to a live transport by tests/test_service_channel.py)
ILL_SHAPED_MESSAGES = (
    _crp_sm_with("log", {"!": "t"}),                              # t without v
    _crp_sm_with("write_id", {"!": "wid", "s": "x", "c": 1}),
    _crp_sm_with("write_id", {"!": "wid"}),                       # no fields
    _crp_sm_with("value", {"!": "mat", "n": 2, "v": "zz"}),
    _crp_sm_with("value", {"!": "pbe", "w": 0, "c": 1, "d": 5}),  # retired tag
    _crp_sm_with("value", {"!": "vec", "n": -1, "v": []}),
    {**_crp_sm_with("var", 1), "t": ["CRPSM"]},                   # t is a list
    # the column forms: exact ints only, columns of one length
    _opt_sm_with("log", _log_columns(w=(0,))),                    # lengths differ
    _opt_sm_with("log", _log_columns(d=((1, 2),))),
    _opt_sm_with("log", _log_columns(w=(True, 2))),
    _opt_sm_with("log", _log_columns(w=(1.0, 2))),
    _opt_sm_with("log", _log_columns(w=("1", 2))),
    _opt_sm_with("log", _log_columns(c=(3, None))),
    _opt_sm_with("log", _log_columns(d=((1, "2"), (0,)))),        # str in dests
    _opt_sm_with("log", _log_columns(d=("12", (0,)))),            # dests no list
    _opt_sm_with("log", _log_columns(d=({}, (0,)))),
    _opt_sm_with("log", {**_log_columns(), "c": {"0": 3, "1": 5}}),  # a dict
    _opt_sm_with("log", {"!": "log", "w": [0], "c": [3]}),        # no d
    _crp_sm_with("log", {"!": "prs", "v": [0, 1, 2]}),            # odd length
    _crp_sm_with("log", {"!": "prs", "v": [0, True]}),
    _crp_sm_with("log", {"!": "prs", "v": {"0": 1}}),
    # a field of the wrong shape: a dataclass would take it, a core would
    # index with it
    _crp_sm_with("log", _log_columns()),                          # records
    _opt_sm_with("log", {"!": "prs", "v": [0, 1]}),               # pairs
    _opt_sm_with("log", "abc"),
    _opt_sm_with("log", {"!": "t", "v": [1, 2]}),
    _opt_sm_with("var", "1"),
    _opt_sm_with("var", 1.0),
    _opt_sm_with("var", True),
    _opt_sm_with("write_id", None),
    _opt_sm_with("write_id", {"!": "wid", "s": 0, "c": 1.0}),
    _opt_sm_with("issued_at", None),
    _opt_sm_with("issued_at", "0.0"),
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
#: value-algebra branch (WriteId, clocks, logs, tuples, None, floats)
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
    OptPSM(var=4, value=True, write_id=WriteId(1, 6),
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
    OptPSM(var=0, value=1, write_id=WriteId(1, 1), vector=_vector(4)),
]


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


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__
    )
    def test_message_roundtrips_equal_and_fingerprinted(self, message):
        decoded = decode_message(encode_message(message))
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
        first = encode_message(message)
        assert encode_message(decode_message(first)) == first

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
        assert encode_message(viewed) == encode_message(flat)
        decoded = decode_message(encode_message(viewed))
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
        assert proto.last_write_on[1][2] == (
            PiggybackEntry(0, 1, frozenset({0})),
            PiggybackEntry(0, 2, frozenset()),
            PiggybackEntry(2, 3, frozenset({0})),
            PiggybackEntry(2, 1, frozenset()),
        )

    @pytest.mark.parametrize("message", LOG_SAMPLES, ids=LOG_SAMPLE_IDS)
    def test_log_forms_roundtrip(self, message):
        first = encode_message(message)
        decoded = decode_message(first)
        assert type(decoded) is type(message) and decoded == message
        assert type(decoded.log) is type(message.log)
        assert fingerprint(decoded) == fingerprint(message)
        assert encode_message(decoded) == first
        # no tag per record, whatever the log's length
        assert b'"pbe"' not in first and first.count(b'"!"') <= 3

    def test_empty_log_stays_empty(self):
        rm = decode_message(encode_message(LOG_SAMPLES[0]))
        assert rm.log == () and type(rm.log) is tuple
        sm = decode_message(encode_message(LOG_SAMPLES[1]))
        assert type(sm.log) is PiggybackView and len(sm.log) == 0

    def test_a_log_is_three_columns_of_plain_ints(self):
        wire = message_to_wire(SAMPLES[3])  # the OptTrackSM
        assert wire["f"][WIRE_FIELDS[OptTrackSM].index("log")] == {
            "!": "log", "w": [0, 2], "c": [3, 5], "d": [[1, 2], [0]]}
        wire = message_to_wire(SAMPLES[0])  # the FM's requirement pairs
        assert wire["f"][3] == {"!": "prs", "v": [0, 2, 2, 5]}

    def test_records_mixed_with_anything_else_do_not_encode(self):
        entry = PiggybackEntry(0, 1, frozenset({1}))
        for log in ((entry, (0, 1)), ((0, 1), entry), (entry, None)):
            with pytest.raises(CodecError, match="cannot encode"):
                encode_message(OptTrackRM(var=0, value=1, write_id=None,
                                          log=log, request_id=1))
        with pytest.raises(CodecError, match="cannot encode"):
            _carried(entry)  # no lone record is ever sent

    def test_site_ids_outside_the_membership_are_refused(self):
        # decode takes the cluster size from whoever knows it
        for message in SAMPLES:
            data = encode_message(message)
            assert decode_message(data, 3) == message
        for message in OUT_OF_MEMBERSHIP:
            data = encode_message(message)
            assert decode_message(data) == message  # shape alone is fine
            with pytest.raises(CodecError):
                decode_message(data, 3)
        # pairs spelled as a plain tuple of tuples are the same pairs
        wire = message_to_wire(SAMPLES[0])
        wire["f"][3] = {"!": "t", "v": [{"!": "t", "v": [99, 1]}]}
        assert message_from_wire(wire).requirements == ((99, 1),)
        with pytest.raises(CodecError, match="site id"):
            message_from_wire(wire, 3)
        # the value is the client's: nothing in it is a site id
        odd = OptTrackRM(var=0, value=((99, 1),), write_id=None, log=(),
                         request_id=1)
        assert decode_message(encode_message(odd), 3) == odd

    def test_unknown_type_is_loud(self):
        class Rogue:
            pass

        with pytest.raises(CodecError, match="not a registered wire type"):
            encode_message(Rogue())

    def test_field_count_mismatch_is_loud(self):
        wire = json.loads(encode_message(SAMPLES[0]))
        wire["f"].append(0)
        with pytest.raises(CodecError, match="expects"):
            decode_message(dumps(wire))


def _carried(value):
    """``value`` after a trip inside a data frame, as a read's answer."""
    rm = OptTrackRM(var=0, value=value, write_id=None, log=(), request_id=1)
    frame = loads(data_frame(0, 1, encode_message(rm)))
    return message_from_wire(frame["m"]).value


class TestValueAlgebra:
    @pytest.mark.parametrize("value", [
        None, True, 0, -3, 2.5, "x", [1, "a"], {"k": 1},
        WriteId(1, 2), (1, (2, 3)), frozenset({3, 1}),
        {"!weird": 1, "!!worse": 2},  # tag-key escaping
    ])
    def test_values_roundtrip(self, value):
        assert _carried(value) == value

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CodecError, match="keys must be strings"):
            _carried({1: "x"})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown wire tag"):
            message_from_wire(_crp_sm_with("value", {"!": "nope"}))


class TestFraming:
    def test_frame_roundtrip(self):
        # pack_frame prefixes bytes (it took the dict and walked it with
        # dumps before the frames became byte templates)
        frame = pack_frame(ack_frame(1, 9))
        size = unpack_length(frame[:4])
        assert loads(frame[4:4 + size]) == {"k": "ack", "src": 1, "cum": 9}

    @pytest.mark.parametrize("message", SAMPLES + LOG_SAMPLES,
                             ids=lambda m: type(m).__name__)
    def test_spliced_data_frame_is_canonical(self, message):
        body = encode_message(message)
        frame = data_frame(4, 2 ** 40, body)
        parsed = loads(frame)
        assert parsed == {"k": "data", "src": 4, "seq": 2 ** 40,
                          "m": message_to_wire(message)}
        assert "sz" not in parsed
        assert dumps(parsed) == frame  # what one walk of the tree writes
        assert message_from_wire(parsed["m"]) == message

    def test_ack_and_hello_templates_are_canonical(self):
        for frame, parsed in [
            (ack_frame(3, -1), {"k": "ack", "src": 3, "cum": -1}),
            (ack_frame(0, 2 ** 70), {"k": "ack", "src": 0, "cum": 2 ** 70}),
            (hello_frame(12), {"k": "hello", "src": 12, "v": WIRE_VERSION}),
        ]:
            assert loads(frame) == parsed and dumps(parsed) == frame
        assert WIRE_VERSION == 2  # v1 tagged every record and sized frames

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
        b'{"k":"ack","src":1,"cum":' + b"1" * 5000 + b"}",  # int digit limit
        b"[" * 100_000 + b"]" * 100_000,                    # parser's stack
        b'\xff\xfe{"k":1}',                                  # not UTF
        b'{"k":"ack","src":1,"cum":NaN}',
        b'{"k":"ack","src":1,"cum":-Infinity}',
        b'{"k":"ack","src":1,"cum":1e999}',                 # inf by overflow
        b"", b"\x00", b'{"k":"ack"', b'{"k":"ack"}x',
    ], ids=["digits", "depth", "utf", "nan", "-inf", "1e999", "empty", "nul",
            "truncated", "trailing"])
    def test_loads_fails_typed(self, payload):
        # not ValueError / RecursionError / UnicodeDecodeError: the node's
        # link reader catches CodecError, and what the encoder refuses
        # to write the decoder refuses to read
        with pytest.raises(CodecError, match="malformed"):
            loads(payload)

    def test_nesting_too_deep_for_any_stage_is_codec_error(self):
        # a client's value may nest; how deep the JSON parser and the
        # value walk each get before the interpreter stops them depends
        # on its version, so: at every depth, a message or a CodecError
        wire = dumps(_crp_sm_with("value", None))
        outcomes = []
        for depth in (50, 400, 600, 900, 1_200, 3_000, 20_000):
            payload = wire.replace(
                b'"f":[1,null', b'"f":[1,' + b"[" * depth + b"]" * depth, 1)
            assert payload != wire
            try:
                outcomes.append(type(decode_message(payload)))
            except CodecError:
                outcomes.append(CodecError)
        assert outcomes[0] is CRPSM and outcomes[-2:] == [CodecError] * 2
        assert set(outcomes) == {CRPSM, CodecError}

    def test_malformed_payload_is_codec_error(self):
        with pytest.raises(CodecError, match="malformed"):
            loads(b"{nope")
        # well-tagged but ill-shaped: the constructors' own KeyError /
        # TypeError / ValueError must not be what a peer's bytes raise
        for wire in ILL_SHAPED_MESSAGES:
            with pytest.raises(CodecError):
                message_from_wire(wire)
            with pytest.raises(CodecError):
                decode_message(dumps(wire))
