"""Binary wire codec for the protocol message vocabulary.

The frozen dataclasses in :mod:`repro.core.messages` are the wire
contract of the live substrate.  Their field *order* used to be implicit
in ``__slots__`` declaration order; :data:`WIRE_FIELDS` makes it an
explicit registry — adding or reordering a field without updating the
registry (and the round-trip test) is now a loud failure instead of a
silent protocol break.

A message is a 6-byte opening — its type code (the type's position in
:data:`WIRE_FIELDS`), a width ``w`` and a count ``k`` (``>BBI``) — then
one *int column* of ``k`` ints, each ``w`` bytes big-endian two's
complement, then the byte runs, so equal messages encode to equal
bytes.  ``w`` is the narrowest of 1, 2, 4 and 8 bytes that holds the
whole column, which one ``struct.unpack_from`` reads; a clock past
2**63 widens the column to as many bytes as its widest int needs (at
most 255).  Each field, in :data:`WIRE_FIELDS` order, is either ints on
the column or a run (``_LAYOUTS``):

* an int field (a var, a request id, the FM's reader) is one int; a
  write id is two (site, clock), behind a presence flag where an RM may
  say "never written";
* a piggybacked log — the bulk of what Opt-Track sends — is two counts
  (records, destinations) and four columns: writers, clocks, the number
  of each record's destinations, and the destinations, sorted per
  record.  Requirement and CRP pairs are a count, the writers and the
  clocks; a Full-Track matrix or an optP vector its width and its cells;
* ``issued_at`` is a run of 8 bytes, a big-endian finite double;
* the client's ``value`` is a run: a tag byte, then for an int its width
  and bytes, for a finite float 8 bytes, for a string a 4-byte length
  and its UTF-8, and for a list or a dict a 4-byte length and its
  canonical JSON (sorted keys, no whitespace, ASCII).  ``None`` and the
  booleans are the tag alone.  A value that is not JSON — a tuple, a
  non-string key, a float that is not finite — is refused when it is
  written (:func:`check_value`), before a protocol moves.

Peers are untrusted: every count is checked against the ints or bytes
left before anything is allocated, a message must end where its frame
ends, every field must decode to the shape its dataclass declares (a
write id's clock is at least 1), a message may not contradict itself
(``_CONSISTENT``) and — given the cluster size — every site id must name
a member and every clock must have the cluster's width.  Whatever fails
leaves as :class:`CodecError`.

Frames on the socket are length-prefixed: a 4-byte big-endian payload
size, then an 11-byte head — kind (``D``/``A``/``H``), the sender's
site (u16) and a signed 64-bit number: a data frame's sequence number,
an ack's cumulative sequence, a hello's :data:`WIRE_VERSION` — and, for
a data frame, the message's bytes.  The version travels in the link
greeting, is checked once per link, and a change to the format bumps
it: this module never decodes two.  Pure bytes-in/bytes-out — no
sockets, no clocks — so the loopback substrate runs every message
through the same functions and the equivalence tests exercise the codec
for free.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate, chain
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple, Optional

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
    "DATA",
    "ACK",
    "HELLO",
    "HEAD_SIZE",
    "dumps",
    "loads",
    "check_value",
    "data_frame",
    "ack_frame",
    "hello_frame",
    "frame_head",
    "pack_frame",
    "unpack_length",
]

#: the wire format's version.  A node greets each link it dials with it
#: and closes an inbound link greeted with any other.
WIRE_VERSION = 3

#: The explicit wire contract: every sendable message type and the exact
#: field order it serializes in.  ``tests/test_service_codec.py`` asserts
#: this list matches each dataclass's declared fields and that every
#: type round-trips to an equal value that re-encodes to the same bytes.
WIRE_FIELDS: dict[type, tuple[str, ...]] = {
    FetchMessage: ("var", "reader", "request_id", "requirements"),
    FullTrackSM: ("var", "value", "write_id", "matrix", "issued_at"),
    FullTrackRM: ("var", "value", "write_id", "matrix", "request_id"),
    OptTrackSM: ("var", "value", "write_id", "log", "issued_at"),
    OptTrackRM: ("var", "value", "write_id", "log", "request_id"),
    CRPSM: ("var", "value", "write_id", "log", "issued_at"),
    OptPSM: ("var", "value", "write_id", "vector", "issued_at"),
}

#: refuse frames larger than this (64 MiB): a corrupt length prefix must
#: not allocate unbounded memory
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")

#: frame kinds: the first byte of every frame
DATA, ACK, HELLO = b"DAH"
_HEAD = struct.Struct(">BHq")
HEAD_SIZE = _HEAD.size

#: what a decoder may trip over in a peer's bytes, and an encoder in a
#: value it was handed; both leave as CodecError
_FAULTS = (AttributeError, IndexError, TypeError, ValueError, OverflowError,
           RecursionError, struct.error)


class CodecError(ValueError):
    """A value cannot be encoded, or wire bytes cannot be decoded."""


def _check_sites(sites: tuple[int, ...], n_sites: Optional[int]) -> None:
    """Every id names one of the cluster's sites, where n is known."""
    if n_sites is not None and sites and not (
            0 <= min(sites) and max(sites) < n_sites):
        raise CodecError(f"site id outside 0..{n_sites - 1}")


# ----------------------------------------------------------------------
# the int column
# ----------------------------------------------------------------------
#: column width in bytes -> its struct code; any other width is a big int
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
#: a message opens with its type code, its column's width and its length
_OPEN = struct.Struct(">BBI")


def _width(lo: int, hi: int) -> int:
    """Bytes of the narrowest column holding ``lo .. hi``."""
    top = max(hi, ~lo)  # the magnitude the sign bit must clear
    if top < 0x80:
        return 1
    if top < 0x8000:
        return 2
    if top < 0x8000_0000:
        return 4
    if top < 1 << 63:
        return 8
    width = top.bit_length() // 8 + 1
    if width > 255:
        raise CodecError(f"an int of {width} bytes is past the column cap")
    return width


def _int(value: int) -> bytes:
    """A value's int: its width byte, then its bytes."""
    width = _width(value, value)
    return bytes((width,)) + value.to_bytes(width, "big", signed=True)


def _get_int(data: bytes, pos: int) -> tuple[int, int]:
    width = data[pos]
    end = pos + 1 + width
    if width == 0 or end > len(data):
        raise CodecError(f"an int of width {width}")
    return int.from_bytes(data[pos + 1:end], "big", signed=True), end


# ----------------------------------------------------------------------
# fields: what each kind of field is on the wire
# ----------------------------------------------------------------------
# A field either puts ints on the message's column (``put(value, ints)``,
# ``get(ints, i, n_sites) -> (value, i after it)``) or is a run of bytes
# after it (``put(value) -> bytes``, ``get(data, pos) -> (value, pos)``).
# ``n_sites``, where known, range-checks the site ids a field carries.
class _Field(NamedTuple):
    in_column: bool
    put: Callable[..., Any]
    get: Callable[..., tuple[Any, int]]


def _put_one(value: int, ints: list[int]) -> None:
    ints.append(value)


def _get_one(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    return ints[i], i + 1


def _get_site(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    _check_sites(ints[i:i + 1], n_sites)
    return ints[i], i + 1


def _put_wid(wid: WriteId, ints: list[int]) -> None:
    if type(wid) is not WriteId:
        raise CodecError(f"a write id cannot be {wid!r}")
    ints += (wid.site, wid.clock)


def _get_wid(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    _check_sites(ints[i:i + 1], n_sites)
    if ints[i + 1] < 1:  # a site numbers its writes from 1
        raise CodecError(f"a write id of clock {ints[i + 1]}")
    return WriteId(ints[i], ints[i + 1]), i + 2


def _put_wid_or_none(wid: Optional[WriteId], ints: list[int]) -> None:
    """A presence flag, then the write id: an RM may say "never written"."""
    if wid is None:
        ints.append(0)
    else:
        ints.append(1)
        _put_wid(wid, ints)


def _get_wid_or_none(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    flag = ints[i]
    if flag == 0:
        return None, i + 1
    if flag != 1:
        raise CodecError(f"a write-id flag of {flag}")
    return _get_wid(ints, i + 1, n_sites)


_WRITER = attrgetter("writer")
_CLOCK = attrgetter("clock")
_DESTS = attrgetter("dests")


def _put_records(log: tuple[PiggybackEntry, ...], ints: list[int]) -> None:
    """Two counts (records, destinations), then four columns: writers,
    clocks, each record's number of destinations, the sorted
    destinations."""
    if type(log) is PiggybackView:
        log = log.flat()  # same bytes as the tuple of its records
    elif type(log) is not tuple:
        raise CodecError(f"a log cannot be {log!r}")
    dests = list(map(sorted, map(_DESTS, log)))
    sizes = list(map(len, dests))
    ints += (len(log), sum(sizes))
    ints += map(_WRITER, log)
    ints += map(_CLOCK, log)
    ints += sizes
    ints += chain.from_iterable(dests)


def _get_records(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    count, total = ints[i], ints[i + 1]
    i += 2
    end = i + 3 * count + total
    if count < 0 or total < 0 or end > len(ints):
        raise CodecError(f"a log of {count} records naming {total} "
                         f"destinations does not fit the column")
    writers = ints[i:i + count]
    clocks = ints[i + count:i + 2 * count]
    sizes = ints[i + 2 * count:i + 3 * count]
    dests = ints[i + 3 * count:end]
    if sum(sizes) != total or (sizes and min(sizes) < 0):
        raise CodecError("destination-set sizes do not add up")
    _check_sites(writers, n_sites)
    _check_sites(dests, n_sites)
    ends = list(accumulate(sizes))
    sets = map(frozenset, map(dests.__getitem__,
                              map(slice, [0, *ends], ends)))
    return tuple(map(PiggybackEntry, writers, clocks, sets)), end


def _put_pairs(pairs: tuple[tuple[int, int], ...], ints: list[int]) -> None:
    """A count, then a column of writers and one of clocks."""
    if type(pairs) is not tuple or set(map(len, pairs)) - {2}:
        raise CodecError(f"pairs cannot be {pairs!r}")
    ints.append(len(pairs))
    ints += map(itemgetter(0), pairs)
    ints += map(itemgetter(1), pairs)


def _get_pairs(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    count = ints[i]
    end = i + 1 + 2 * count
    if count < 0 or end > len(ints):
        raise CodecError(f"{count} pairs run past the column")
    writers = ints[i + 1:i + 1 + count]
    _check_sites(writers, n_sites)
    return tuple(zip(writers, ints[i + 1 + count:end])), end


def _get_cells(ints: tuple[int, ...], i: int, n_sites: Optional[int],
               cells: Callable[[int], int]):
    """A clock's width, then its cells."""
    width = ints[i]
    if width < 1 or (n_sites is not None and width != n_sites):
        raise CodecError(f"a clock of width {width}"
                         + ("" if n_sites is None else f", not {n_sites}"))
    end = i + 1 + cells(width)
    if end > len(ints):
        raise CodecError(f"a clock of width {width} runs past the column")
    return width, ints[i + 1:end], end


def _put_matrix(matrix: MatrixClock, ints: list[int]) -> None:
    if type(matrix) is not MatrixClock:
        raise CodecError(f"a matrix clock cannot be {matrix!r}")
    ints.append(matrix.n)
    ints += matrix.m.ravel().tolist()


def _get_matrix(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    n, cells, end = _get_cells(ints, i, n_sites, lambda n: n * n)
    clock = MatrixClock(n, [cells[k:k + n] for k in range(0, n * n, n)])
    clock.m.setflags(write=False)  # a received clock is a sent clock
    return clock, end


def _put_vector(vector: VectorClock, ints: list[int]) -> None:
    if type(vector) is not VectorClock:
        raise CodecError(f"a vector clock cannot be {vector!r}")
    ints.append(vector.n)
    ints += vector.v.tolist()


def _get_vector(ints: tuple[int, ...], i: int, n_sites: Optional[int]):
    n, cells, end = _get_cells(ints, i, n_sites, lambda n: n)
    clock = VectorClock(n, cells)
    clock.v.setflags(write=False)
    return clock, end


_REAL = struct.Struct(">d")


def _put_real(value: float) -> bytes:
    if not isfinite(value):
        raise CodecError(f"a time cannot be {value!r}")
    return _REAL.pack(value)


def _get_real(data: bytes, pos: int):
    (value,) = _REAL.unpack_from(data, pos)
    if not isfinite(value):
        raise CodecError(f"a time cannot be {value!r}")
    return value, pos + _REAL.size


# ----------------------------------------------------------------------
# the client's value
# ----------------------------------------------------------------------
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _JSON = range(7)
_SIZED = struct.Struct(">BI")  # tag, byte length
_TAGGED_FLOAT = struct.Struct(">Bd")

# built once: json.dumps / json.loads with options build one per call
_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False,
).encode


def _finite(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise CodecError(f"{text} overflows a float")
    return value


def _no_constant(name: str) -> float:
    raise CodecError(f"{name} is not a JSON number")


_DECODE = json.JSONDecoder(
    parse_float=_finite, parse_constant=_no_constant,
).decode


def _check_json(value: object) -> None:
    """``value`` is JSON, so it comes back as it went: string keys only,
    lists (not tuples), finite floats."""
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise CodecError(f"dict keys must be strings, got {key!r}")
            _check_json(item)
    elif kind is list:
        for item in value:
            _check_json(item)
    elif kind is float:
        if not isfinite(value):
            raise CodecError(f"cannot encode the float {value!r}")
    elif kind not in (str, int, bool, type(None)):
        raise CodecError(f"cannot encode {kind.__name__} value {value!r}")


def _put_value(value: object) -> bytes:
    kind = type(value)
    if kind is str:
        text = value.encode("utf-8")
        return _SIZED.pack(_STR, len(text)) + text
    if kind is int:
        return bytes((_INT,)) + _int(value)
    if value is None:
        return bytes((_NONE,))
    if kind is bool:
        return bytes((_TRUE if value else _FALSE,))
    if kind is float:
        if not isfinite(value):
            raise CodecError(f"cannot encode the float {value!r}")
        return _TAGGED_FLOAT.pack(_FLOAT, value)
    if kind is not list and kind is not dict:
        raise CodecError(f"cannot encode {kind.__name__} value {value!r}")
    _check_json(value)
    blob = _ENCODE(value).encode("ascii")
    return _SIZED.pack(_JSON, len(blob)) + blob


def _get_value(data: bytes, pos: int):
    """The client's value: nothing in it is a site id."""
    tag = data[pos]
    if tag == _INT:
        return _get_int(data, pos + 1)
    if tag == _STR or tag == _JSON:
        _, size = _SIZED.unpack_from(data, pos)
        start = pos + _SIZED.size
        end = start + size
        if end > len(data):
            raise CodecError(f"a value of {size} bytes runs past the frame")
        if tag == _STR:
            return str(data[start:end], "utf-8"), end
        value = _DECODE(str(data[start:end], "ascii"))
        if type(value) is not list and type(value) is not dict:
            raise CodecError("a JSON value is a list or an object")
        return value, end
    if tag == _FLOAT:
        _, value = _TAGGED_FLOAT.unpack_from(data, pos)
        if not isfinite(value):
            raise CodecError(f"a value cannot be {value!r}")
        return value, pos + _TAGGED_FLOAT.size
    if tag <= _TRUE:
        return (None, False, True)[tag], pos + 1
    raise CodecError(f"unknown value tag {tag}")


def check_value(value: object) -> None:
    """Raise :class:`CodecError` unless ``value`` can travel as a
    message's value — what a node asks before a write moves anything."""
    try:
        _put_value(value)
    except CodecError:
        raise
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"cannot encode value: {exc}") from exc


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
_INT_F = _Field(True, _put_one, _get_one)
_SITE_F = _Field(True, _put_one, _get_site)
_WID_F = _Field(True, _put_wid, _get_wid)
_WID_OR_NONE_F = _Field(True, _put_wid_or_none, _get_wid_or_none)
_RECORDS_F = _Field(True, _put_records, _get_records)
_PAIRS_F = _Field(True, _put_pairs, _get_pairs)
_MATRIX_F = _Field(True, _put_matrix, _get_matrix)
_VECTOR_F = _Field(True, _put_vector, _get_vector)
_VALUE_F = _Field(False, _put_value, _get_value)
_REAL_F = _Field(False, _put_real, _get_real)

#: each field, in :data:`WIRE_FIELDS` order: a dataclass checks nothing,
#: and the cores index with what they are given
_LAYOUTS: dict[type, tuple[_Field, ...]] = {
    FetchMessage: (_INT_F, _SITE_F, _INT_F, _PAIRS_F),
    FullTrackSM: (_INT_F, _VALUE_F, _WID_F, _MATRIX_F, _REAL_F),
    FullTrackRM: (_INT_F, _VALUE_F, _WID_OR_NONE_F, _MATRIX_F, _INT_F),
    OptTrackSM: (_INT_F, _VALUE_F, _WID_F, _RECORDS_F, _REAL_F),
    OptTrackRM: (_INT_F, _VALUE_F, _WID_OR_NONE_F, _RECORDS_F, _INT_F),
    CRPSM: (_INT_F, _VALUE_F, _WID_F, _PAIRS_F, _REAL_F),
    OptPSM: (_INT_F, _VALUE_F, _WID_F, _VECTOR_F, _REAL_F),
}

#: what a message must say about itself beyond each field's shape: an
#: optP SM's write id is its own vector's entry for the writer (the gate
#: reads the vector, the apply the write id)
_CONSISTENT: dict[type, Callable[[Any], bool]] = {
    OptPSM: lambda m: (0 <= m.write_id.site < m.vector.n and m.write_id.clock
                       == m.vector.as_list()[m.write_id.site]),
}

#: type -> (code, its fields' getter, its fields in WIRE_FIELDS order)
_ENCODERS = {cls: (code, attrgetter(*WIRE_FIELDS[cls]), _LAYOUTS[cls])
             for code, cls in enumerate(WIRE_FIELDS)}
#: code -> (type, its fields in WIRE_FIELDS order)
_DECODERS = [(cls, _LAYOUTS[cls]) for cls in WIRE_FIELDS]


def dumps(message: object) -> bytes:
    """The wire bytes of one message (no frame head): the one encode a
    message gets, however often it is sent.

    Its type code, then one int column holding every int field in
    :data:`WIRE_FIELDS` order, then the value and the issue time."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise CodecError(
            f"{type(message).__name__} is not a registered wire type "
            f"(add it to WIRE_FIELDS)"
        )
    code, get_fields, layout = encoder
    try:
        ints: list[int] = []
        runs: list[bytes] = []
        for (in_column, put, _), value in zip(layout, get_fields(message)):
            if in_column:
                put(value, ints)
            else:
                runs.append(put(value))
        width = _width(min(ints), max(ints))
        char = _CODES.get(width)
        if char is None:
            head = _OPEN.pack(code, width, len(ints)) + b"".join(
                [v.to_bytes(width, "big", signed=True) for v in ints])
        else:
            head = struct.pack(f">BBI{len(ints)}{char}",
                               code, width, len(ints), *ints)
        return head + b"".join(runs)
    except CodecError:
        raise
    except _FAULTS as exc:
        raise CodecError(
            f"cannot encode {type(message).__name__}: {exc!r}") from exc


def loads(data: bytes, n_sites: Optional[int] = None, start: int = 0) -> object:
    """The message in ``data[start:]``.  Peers are untrusted, and this is
    where their bytes become objects: whatever cannot be built — an
    unknown type, a count past the ints or bytes left, anything after
    the last field, a field of the wrong shape, with ``n_sites`` a site
    id outside ``0 .. n_sites - 1`` — leaves as :class:`CodecError`,
    not as the ``struct.error`` / ``IndexError`` / ``ValueError`` a
    reader or a constructor tripped over."""
    try:
        code, width, count = _OPEN.unpack_from(data, start)
        if code >= len(_DECODERS):
            raise CodecError(f"unknown message type {code}")
        cls, layout = _DECODERS[code]
        pos = start + _OPEN.size
        end = pos + count * width
        if end > len(data):
            raise CodecError(f"a column of {count} runs past the frame")
        char = _CODES.get(width)
        if char is not None:
            ints = struct.unpack_from(f">{count}{char}", data, pos)
        elif width == 0:
            raise CodecError("a column of width 0")
        else:
            ints = tuple([int.from_bytes(data[k:k + width], "big", signed=True)
                          for k in range(pos, end, width)])
        pos, i = end, 0
        values = []
        for in_column, _, get in layout:
            if in_column:
                value, i = get(ints, i, n_sites)
            else:
                value, pos = get(data, pos)
            values.append(value)
        if i != count or pos != len(data):
            raise CodecError(f"more after the last field of a {cls.__name__}")
        message = cls(*values)
        consistent = _CONSISTENT.get(cls)
        if consistent is not None and not consistent(message):
            raise CodecError(f"a {cls.__name__} that contradicts itself")
        return message
    except CodecError:
        raise
    except _FAULTS as exc:
        raise CodecError(f"malformed message: {exc!r}") from exc


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def data_frame(src: int, seq: int, message: bytes) -> bytes:
    """The head of a data frame before the bytes :func:`dumps` made."""
    return _HEAD.pack(DATA, src, seq) + message


def ack_frame(src: int, cumulative: int) -> bytes:
    return _HEAD.pack(ACK, src, cumulative)


def hello_frame(src: int) -> bytes:
    """The greeting a node opens every link it dials with."""
    return _HEAD.pack(HELLO, src, WIRE_VERSION)


def frame_head(frame: bytes) -> tuple[int, int, int]:
    """``(kind, src, number)`` of a frame, or :class:`CodecError` for
    bytes that do not open with this format's head."""
    if len(frame) < HEAD_SIZE or frame[0] not in (DATA, ACK, HELLO):
        raise CodecError(f"no frame head in {bytes(frame[:HEAD_SIZE])!r}")
    return _HEAD.unpack_from(frame)


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
