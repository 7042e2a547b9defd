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
  clocks;
* a piggybacked log — the bulk of what Opt-Track sends — is priced per
  byte, not per record: a non-empty tuple of
  :class:`~repro.core.log.PiggybackEntry` (an SM's
  :class:`~repro.core.log.PiggybackView` goes out as its flat sequence)
  is one ``log`` object of three parallel arrays of plain ints (writers,
  clocks, sorted destination lists), and a non-empty tuple of
  ``(int, int)`` pairs (FM requirements, the CRP log) one interleaved
  array under ``prs``.  Decode type-checks a column at a time and
  rebuilds the records with ``map``;
* other containers: tuples are tagged (``t``) so decode restores them
  exactly, frozensets (``fs``) serialize sorted, plain lists/dicts pass
  through with dict keys required to be strings (client values arrive
  as JSON).

Peers are untrusted: ints must be exact ``int`` s (not ``"5"``, ``5.0``
or ``true``), every field must decode to the shape its dataclass
declares and — given the cluster size — every site id must name a
member.  Whatever fails leaves as :class:`CodecError`, :func:`loads`
included.

Frames on the socket are length-prefixed: a 4-byte big-endian payload
size followed by canonical JSON bytes.  The three frame kinds are byte
templates (:func:`data_frame` splices a message's encoded bytes in; it
does not walk them again), each equal to ``dumps(loads(frame))``.  The
format is :data:`WIRE_VERSION`: it travels in the link greeting, is
checked once per link, and a change to the format bumps it — this
module never decodes two.  Pure bytes-in/bytes-out — no sockets, no
clocks — so the loopback substrate runs every message through the same
functions and the equivalence tests exercise the codec for free.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from math import isinf
from typing import Any, Callable, Iterable, Optional

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
    "WIRE_VERSION",
    "CodecError",
    "MAX_FRAME_BYTES",
    "encode_message",
    "decode_message",
    "message_to_wire",
    "message_from_wire",
    "dumps",
    "loads",
    "data_frame",
    "ack_frame",
    "hello_frame",
    "pack_frame",
    "unpack_length",
]

#: the wire format's version.  A node greets each link it dials with it
#: and closes an inbound link greeted with any other.
WIRE_VERSION = 2

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


def _all(kind: type, values: Iterable[object]) -> bool:
    """Every value is exactly a ``kind`` (a ``bool`` is not an ``int``),
    checked at C speed."""
    return set(map(type, values)) <= {kind}


def _is_records(obj: object) -> bool:
    return type(obj) is tuple and _all(PiggybackEntry, obj)


def _is_pairs(obj: object) -> bool:
    return (type(obj) is tuple and _all(tuple, obj)
            and set(map(len, obj)) <= {2}
            and _all(int, chain.from_iterable(obj)))


def _check_sites(sites: list[int], n_sites: Optional[int]) -> None:
    """Every id names a member, where the membership is known."""
    if n_sites is not None and sites and not (
            0 <= min(sites) and max(sites) < n_sites):
        raise CodecError(f"site id outside 0..{n_sites - 1}")


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
    if isinstance(obj, PiggybackView):
        obj = obj.flat()  # same bytes as the tuple of its records
    if isinstance(obj, tuple):
        if obj and _is_records(obj):
            return {_TAG: "log",
                    "w": [e.writer for e in obj],
                    "c": [e.clock for e in obj],
                    "d": [sorted(e.dests) for e in obj]}
        if obj and _is_pairs(obj):
            return {_TAG: "prs", "v": list(chain.from_iterable(obj))}
        # a record among other things lands in the final raise
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


def _from_wire(obj: object, n_sites: Optional[int] = None) -> object:
    """The value a wire form describes; with ``n_sites``, site ids
    outside the membership (and clocks of another width) are refused."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_from_wire(x, n_sites) for x in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag is None:
            return {
                (k[1:] if k.startswith(_TAG) else k): _from_wire(v, n_sites)
                for k, v in obj.items()
            }
        if tag == "log":
            ws, cs, ds = obj["w"], obj["c"], obj["d"]
            if not (type(ws) is type(cs) is type(ds) is list
                    and len(ws) == len(cs) == len(ds) and _all(list, ds)):
                raise CodecError("a log is three lists of one length")
            sites = list(chain(ws, *ds))
            if not (_all(int, sites) and _all(int, cs)):
                raise CodecError("log columns hold ints only")
            _check_sites(sites, n_sites)
            return tuple(map(PiggybackEntry, ws, cs, map(frozenset, ds)))
        if tag == "prs":
            flat = obj["v"]
            if not (type(flat) is list and len(flat) % 2 == 0
                    and _all(int, flat)):
                raise CodecError("pairs are one even-length list of ints")
            return tuple(zip(flat[::2], flat[1::2]))
        if tag == "wid":
            site, clock = obj["s"], obj["c"]
            if type(site) is not int or type(clock) is not int:
                raise CodecError("a write id is two ints")
            _check_sites([site], n_sites)
            return WriteId(site, clock)
        if tag == "mat" or tag == "vec":
            width, cells = obj["n"], obj["v"]
            rows = cells if tag == "mat" else [cells]
            if not (type(width) is int and type(cells) is list
                    and _all(list, rows)
                    and _all(int, chain.from_iterable(rows))):
                raise CodecError("a clock is a width and lists of ints")
            if n_sites is not None and width != n_sites:
                raise CodecError(f"clock of width {width}, not {n_sites}")
            return (MatrixClock if tag == "mat" else VectorClock)(
                width, cells)
        if tag == "t" or tag == "fs":
            items = obj["v"]
            if type(items) is not list:
                raise CodecError(f"{tag} holds a list, not {items!r}")
            if tag == "fs":
                return frozenset(items)
            return tuple(_from_wire(x, n_sites) for x in items)
        raise CodecError(f"unknown wire tag {tag!r}")
    raise CodecError(f"cannot decode wire value {obj!r}")


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
_Shape = Callable[[object], bool]


def _exactly(*kinds: type) -> _Shape:
    return lambda obj: type(obj) in kinds


def _ANY(obj: object) -> bool:  # ``value`` is the client's
    return True


_INT = _exactly(int)
_SITE = _exactly(int)  # and, given the membership, a member's
_REAL = _exactly(int, float)
_WID = _exactly(WriteId)
_WID_OR_NONE = _exactly(WriteId, type(None))
_MATRIX = _exactly(MatrixClock)
_VECTOR = _exactly(VectorClock)

#: what each field, in :data:`WIRE_FIELDS` order, must decode to: a
#: dataclass checks nothing, and the cores index with what they are given
_SHAPES: dict[type, tuple[_Shape, ...]] = {
    FetchMessage: (_INT, _SITE, _INT, _is_pairs),
    FullTrackSM: (_INT, _ANY, _WID, _MATRIX, _REAL),
    FullTrackRM: (_INT, _ANY, _WID_OR_NONE, _MATRIX, _INT),
    OptTrackSM: (_INT, _ANY, _WID, _is_records, _REAL),
    OptTrackRM: (_INT, _ANY, _WID_OR_NONE, _is_records, _INT),
    CRPSM: (_INT, _ANY, _WID, _is_pairs, _REAL),
    OptPSM: (_INT, _ANY, _WID, _VECTOR, _REAL),
}


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


def message_from_wire(data: dict, n_sites: Optional[int] = None) -> object:
    """The message a tagged dict describes.  Peers are untrusted, and
    this is where their bytes become objects: whatever cannot be built —
    an unknown type, a wrong field count, a field of the wrong shape,
    with ``n_sites`` a site id outside ``0 .. n_sites - 1`` — leaves as
    :class:`CodecError`, not as the ``KeyError`` / ``TypeError`` /
    ``ValueError`` a constructor tripped over.  ``value`` is the
    client's, not the protocol's: it is decoded without the membership."""
    try:
        if data.get(_TAG) != "msg":
            raise CodecError("not an encoded message")
        cls = _BY_NAME.get(data.get("t", ""))
        if cls is None:
            raise CodecError(f"unknown message type {data.get('t')!r}")
        fields = WIRE_FIELDS[cls]
        raw = data.get("f")
        if not isinstance(raw, list) or len(raw) != len(fields):
            raise CodecError(
                f"{cls.__name__} expects {len(fields)} fields, got {raw!r}"
            )
        values: list[Any] = [
            _from_wire(v, None if name == "value" else n_sites)
            for name, v in zip(fields, raw)]
        for name, fits, value in zip(fields, _SHAPES[cls], values):
            if not fits(value):
                raise CodecError(f"{cls.__name__}.{name} cannot be {value!r}")
            if fits is _is_pairs:  # (writer, clock): any tuple form decodes
                _check_sites([writer for writer, _ in value], n_sites)
            elif fits is _SITE:
                _check_sites([value], n_sites)
        return cls(*values)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise CodecError(f"ill-shaped message: {exc!r}") from exc


def encode_message(message: object) -> bytes:
    """Canonical bytes of one message (no frame prefix)."""
    return dumps(message_to_wire(message))


def decode_message(data: bytes, n_sites: Optional[int] = None) -> object:
    obj = loads(data)
    if not isinstance(obj, dict):
        raise CodecError("bytes do not contain an encoded message")
    return message_from_wire(obj, n_sites)


# ----------------------------------------------------------------------
# canonical JSON: the only two JSON entry points
# ----------------------------------------------------------------------
def _finite(text: str) -> float:
    value = float(text)
    if isinf(value):
        raise CodecError(f"{text} overflows a float")
    return value


def _no_constant(name: str) -> float:
    raise CodecError(f"{name} is not a JSON number")


# built once: json.dumps / json.loads with options build one per call
_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False,
).encode
_DECODE = json.JSONDecoder(
    parse_float=_finite, parse_constant=_no_constant,
).decode


def dumps(obj: object) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, ASCII only."""
    return _ENCODE(obj).encode("ascii")


def loads(data: bytes) -> object:
    """Parsed JSON, or :class:`CodecError`.  What :func:`dumps` never
    writes is refused (``NaN``, the infinities, a float that overflows
    to one, a byte outside ASCII), and so is everything else the parser
    can trip over: bad syntax (a ``ValueError``, as a bad byte is), an
    integer past the interpreter's digit limit (``ValueError`` too),
    nesting past its stack."""
    try:
        return _DECODE(str(data, "ascii"))
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"malformed frame payload: {exc}") from exc


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def data_frame(src: int, seq: int, message: bytes) -> bytes:
    """``{"k":"data","m":<message>,"seq":n,"src":i}`` around the bytes
    :func:`encode_message` made — spliced in, not parsed: the keys are
    already in sorted order, so the frame is canonical if they are."""
    return b'{"k":"data","m":%b,"seq":%d,"src":%d}' % (message, seq, src)


def ack_frame(src: int, cumulative: int) -> bytes:
    return b'{"cum":%d,"k":"ack","src":%d}' % (cumulative, src)


def hello_frame(src: int) -> bytes:
    """The greeting a node opens every link it dials with."""
    return b'{"k":"hello","src":%d,"v":%d}' % (src, WIRE_VERSION)


def pack_frame(payload: bytes) -> bytes:
    """Length-prefixed frame: 4-byte big-endian size + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds the cap")
    return _LEN.pack(len(payload)) + payload


def unpack_length(prefix: bytes) -> int:
    """Payload size from the 4-byte prefix, validated against the cap."""
    (size,) = _LEN.unpack(prefix)
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {size} exceeds the cap")
    return size
