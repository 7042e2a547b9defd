"""Deterministic wire codec for the protocol message vocabulary.

The frozen dataclasses in :mod:`repro.core.messages` are the wire
contract of the live substrate.  Their field *order* used to be implicit
in ``__slots__`` declaration order; :data:`WIRE_FIELDS` makes it an
explicit registry — adding or reordering a field without updating the
registry (and the round-trip test) is now a loud failure instead of a
silent protocol break.

Encoding is canonical JSON (sorted keys, no whitespace, ASCII) over a
small tagged value algebra, so equal messages encode to equal bytes on
every platform:

* JSON scalars (``None``/bool/int/float/str) pass through — Python's
  ``repr``-based float serialization is shortest-round-trip, so
  timestamps survive exactly;
* project types are tagged objects: ``{"!": "wid", ...}`` for
  :class:`~repro.memory.store.WriteId`, ``mat``/``vec`` for the numpy
  clocks, ``pbe`` for :class:`~repro.core.log.PiggybackEntry`;
* containers: tuples are tagged (``t``) so decode restores them exactly
  (an Opt-Track SM's :class:`~repro.core.log.PiggybackView` encodes as
  the tuple of its records and is rebuilt from it on decode),
  frozensets (``fs``) serialize sorted, plain lists/dicts pass through
  with dict keys required to be strings (client values arrive as JSON).

Frames on the socket are length-prefixed: a 4-byte big-endian payload
size followed by the canonical JSON bytes.  This module is pure
bytes-in/bytes-out — no sockets, no clocks — so the loopback substrate
can push every message through ``encode``/``decode`` in its data path
and the equivalence tests exercise the codec for free.
"""

from __future__ import annotations

import json
import struct
from typing import Callable

from ..core.log import PiggybackEntry, PiggybackView
from ..core.clocks import MatrixClock, VectorClock
from ..core.messages import (
    CRPSM,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
    OptTrackRM,
    OptTrackSM,
)
from ..memory.store import WriteId

__all__ = [
    "WIRE_FIELDS",
    "CodecError",
    "MAX_FRAME_BYTES",
    "encode_message",
    "decode_message",
    "message_to_wire",
    "message_from_wire",
    "dumps",
    "loads",
    "pack_frame",
    "unpack_length",
]

#: The explicit wire contract: every sendable message type and the exact
#: field order it serializes in.  ``tests/test_service_codec.py`` asserts
#: this list matches each dataclass's declared fields and that every
#: type round-trips to a structurally-fingerprinted equal value.
WIRE_FIELDS: dict[type, tuple[str, ...]] = {
    FetchMessage: ("var", "reader", "request_id", "requirements"),
    FullTrackSM: ("var", "value", "write_id", "matrix", "issued_at"),
    FullTrackRM: ("var", "value", "write_id", "matrix", "request_id"),
    OptTrackSM: ("var", "value", "write_id", "log", "issued_at"),
    OptTrackRM: ("var", "value", "write_id", "log", "request_id"),
    CRPSM: ("var", "value", "write_id", "log", "issued_at"),
    OptPSM: ("var", "value", "write_id", "vector", "issued_at"),
}

_BY_NAME: dict[str, type] = {cls.__name__: cls for cls in WIRE_FIELDS}

#: refuse frames larger than this (64 MiB): a corrupt length prefix must
#: not allocate unbounded memory
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")

#: tag key: no client JSON object may use it (escaped on encode)
_TAG = "!"


class CodecError(ValueError):
    """A value cannot be encoded, or wire bytes cannot be decoded."""


# ----------------------------------------------------------------------
# value algebra
# ----------------------------------------------------------------------
def _to_wire(obj: object) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, WriteId):
        return {_TAG: "wid", "s": obj.site, "c": obj.clock}
    if isinstance(obj, MatrixClock):
        return {_TAG: "mat", "n": obj.n, "v": obj.m.tolist()}
    if isinstance(obj, VectorClock):
        return {_TAG: "vec", "n": obj.n, "v": obj.v.tolist()}
    if isinstance(obj, PiggybackEntry):
        return {_TAG: "pbe", "w": obj.writer, "c": obj.clock,
                "d": sorted(obj.dests)}
    if isinstance(obj, (tuple, PiggybackView)):
        # a view goes out as its flat sequence: same bytes as the tuple
        return {_TAG: "t", "v": [_to_wire(x) for x in obj]}
    if isinstance(obj, frozenset):
        return {_TAG: "fs", "v": sorted(obj)}
    if isinstance(obj, list):
        return [_to_wire(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise CodecError(f"dict keys must be strings, got {k!r}")
            # escape a literal "!"-prefixed key so it can't fake a tag
            out[("!" + k) if k.startswith(_TAG) else k] = _to_wire(v)
        return out
    raise CodecError(f"cannot encode {type(obj).__name__} value {obj!r}")


def _from_wire(obj: object) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_from_wire(x) for x in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag is None:
            return {
                (k[1:] if k.startswith(_TAG) else k): _from_wire(v)
                for k, v in obj.items()
            }
        if tag == "wid":
            return WriteId(int(obj["s"]), int(obj["c"]))
        if tag == "mat":
            return MatrixClock(int(obj["n"]), obj["v"])
        if tag == "vec":
            return VectorClock(int(obj["n"]), obj["v"])
        if tag == "pbe":
            return PiggybackEntry(int(obj["w"]), int(obj["c"]),
                                  frozenset(obj["d"]))
        if tag == "t":
            return tuple(_from_wire(x) for x in obj["v"])
        if tag == "fs":
            return frozenset(obj["v"])
        if tag == "msg":
            return message_from_wire(obj)
        raise CodecError(f"unknown wire tag {tag!r}")
    raise CodecError(f"cannot decode wire value {obj!r}")


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def message_to_wire(message: object) -> dict:
    """The tagged-dict form of one sendable message (embeddable in frames)."""
    fields = WIRE_FIELDS.get(type(message))
    if fields is None:
        raise CodecError(
            f"{type(message).__name__} is not a registered wire type "
            f"(add it to WIRE_FIELDS)"
        )
    return {
        _TAG: "msg",
        "t": type(message).__name__,
        "f": [_to_wire(getattr(message, name)) for name in fields],
    }


def message_from_wire(data: dict) -> object:
    """The message a tagged dict describes.  Peers are untrusted, and
    this is where their bytes become objects: whatever cannot be built —
    an unknown type, a wrong field count, a well-tagged value of the
    wrong shape — leaves as :class:`CodecError`, not as the
    ``KeyError`` / ``TypeError`` / ``ValueError`` a constructor tripped
    over."""
    try:
        cls = _BY_NAME.get(data.get("t", ""))
        if cls is None:
            raise CodecError(f"unknown message type {data.get('t')!r}")
        fields = WIRE_FIELDS[cls]
        raw = data.get("f")
        if not isinstance(raw, list) or len(raw) != len(fields):
            raise CodecError(
                f"{cls.__name__} expects {len(fields)} fields, got {raw!r}"
            )
        return cls(**{name: _from_wire(v) for name, v in zip(fields, raw)})
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"ill-shaped message: {exc!r}") from exc


def encode_message(message: object) -> bytes:
    """Canonical bytes of one message (no frame prefix)."""
    return dumps(message_to_wire(message))


def decode_message(data: bytes) -> object:
    obj = loads(data)
    if not isinstance(obj, dict) or obj.get(_TAG) != "msg":
        raise CodecError("bytes do not contain an encoded message")
    return message_from_wire(obj)


# ----------------------------------------------------------------------
# canonical JSON + framing
# ----------------------------------------------------------------------
def dumps(obj: object) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    ).encode("ascii")


def loads(data: bytes) -> object:
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise CodecError(f"malformed frame payload: {exc}") from exc


def pack_frame(obj: object) -> bytes:
    """Length-prefixed canonical frame: 4-byte big-endian size + payload."""
    payload = dumps(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds the cap")
    return _LEN.pack(len(payload)) + payload


def unpack_length(prefix: bytes) -> int:
    """Payload size from the 4-byte prefix, validated against the cap."""
    (size,) = _LEN.unpack(prefix)
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {size} exceeds the cap")
    return size


def decode_value(obj: object) -> object:
    """Public wrapper used by frames that embed message/value payloads."""
    return _from_wire(obj)


def encode_value(obj: object) -> object:
    """Public wrapper: the tagged wire form of any supported value."""
    return _to_wire(obj)


#: re-exported for callers that stream frames incrementally
read_frame_size: Callable[[bytes], int] = unpack_length
