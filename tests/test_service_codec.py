"""Wire-codec contract tests: WIRE_FIELDS registry + round-trip fidelity."""

import dataclasses
import json

import pytest

from repro.check.sanitizer import fingerprint
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import OptTrackLog, PiggybackEntry
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
    CodecError,
    decode_message,
    decode_value,
    dumps,
    encode_message,
    encode_value,
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


def _crp_sm_with(field: str, wire_value: object) -> dict:
    """The wire form of a valid CRPSM with one field's encoding replaced."""
    wire = message_to_wire(CRPSM(var=1, value=2, write_id=WriteId(0, 1),
                                 log=((0, 1),)))
    wire["f"][WIRE_FIELDS[CRPSM].index(field)] = wire_value
    return wire


#: well-tagged values no constructor can build (also fed, inside data
#: frames, to a live transport by tests/test_service_channel.py)
ILL_SHAPED_MESSAGES = (
    _crp_sm_with("log", {"!": "t"}),                              # t without v
    _crp_sm_with("write_id", {"!": "wid", "s": "x", "c": 1}),
    _crp_sm_with("write_id", {"!": "wid"}),                       # no fields
    _crp_sm_with("value", {"!": "mat", "n": 2, "v": "zz"}),
    _crp_sm_with("value", {"!": "pbe", "w": 0, "c": 1, "d": 5}),
    _crp_sm_with("value", {"!": "vec", "n": -1, "v": []}),
    {**_crp_sm_with("var", 1), "t": ["CRPSM"]},                   # t is a list
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
          log=_log(), issued_at=99.0),
    OptPSM(var=4, value=True, write_id=WriteId(1, 6),
           vector=_vector(), issued_at=7.0),
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
        assert not proto._sm_ready(2, decoded)
        proto.applied[0] = 1
        assert proto._sm_blocker(2, decoded) == (2, 1)
        proto.applied[2] = 1
        assert proto._sm_ready(2, decoded)
        proto._apply_sm(2, decoded)
        assert ctx.store.read(1).value == "v"
        # stored with this site stripped; the dead extra stays, emptied
        assert proto.last_write_on[1][2] == (
            PiggybackEntry(0, 1, frozenset({0})),
            PiggybackEntry(0, 2, frozenset()),
            PiggybackEntry(2, 3, frozenset({0})),
            PiggybackEntry(2, 1, frozenset()),
        )

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


class TestValueAlgebra:
    @pytest.mark.parametrize("value", [
        None, True, 0, -3, 2.5, "x", [1, "a"], {"k": 1},
        WriteId(1, 2), (1, (2, 3)), frozenset({3, 1}),
        {"!weird": 1, "!!worse": 2},  # tag-key escaping
    ])
    def test_values_roundtrip(self, value):
        assert decode_value(json.loads(dumps(encode_value(value)))) == value

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CodecError, match="keys must be strings"):
            encode_value({1: "x"})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown wire tag"):
            decode_value({"!": "nope"})


class TestFraming:
    def test_frame_roundtrip(self):
        frame = pack_frame({"k": "ack", "src": 1, "cum": 9})
        size = unpack_length(frame[:4])
        assert loads(frame[4:4 + size]) == {"k": "ack", "src": 1, "cum": 9}

    def test_length_cap_enforced(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(CodecError, match="exceeds the cap"):
            unpack_length(huge)

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
