"""Property: no bytes a peer can send take a node down.

Valid frames -- one of every message type, an ack, the link greeting --
are mutated the ways a buggy or hostile peer's bytes go wrong: cut short
at any offset, a byte flipped, bytes appended, a count or a length
inflated, a site id outside the membership, a clock of the wrong width,
an issue time that is not finite, a head naming a non-member, the node
itself or a negative sequence number.  Each is fed through the live
ingress path, ``ServiceTransport.on_frame``, of a node in a 3-site
loopback cluster.  The only acceptable outcomes are a
:class:`CodecError` (bytes without a frame head: the node closes their
link), a ``malformed_frames`` bump, a ``misaddressed`` bump (a
well-formed message about a variable the node does not hold), or --
only a flipped byte can do it -- acceptance of what is simply a
different valid frame.  Never another exception, and afterwards the node
still applies a legitimate write.

What no check at the wire can catch is a *well-formed lie*: a clock from
the future is indistinguishable from a fast writer, and a message gated
on it waits forever.  So quiescence of the whole cluster is asserted
whenever the frame was refused, and the liveness of legitimate traffic
in every case.
"""

import dataclasses
import struct

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry
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
from repro.loopback import LoopbackCluster
from repro.service import api
from repro.service.bootstrap import build_placement, default_topology
from repro.service.codec import (
    HEAD_SIZE,
    HELLO,
    CodecError,
    ack_frame,
    data_frame,
    dumps,
    frame_head,
    hello_frame,
    loads,
)
from repro.sim.events import EventKind

from .test_service_codec import column, layout, raw

N_SITES = 3
N_VARS = 6
#: the node under attack, the member the frames claim to come from, and
#: the bystander whose write must still get through
TARGET, FORGED, WRITER = 0, 2, 1

PARTIAL = {"full-track", "opt-track"}


def _cluster(protocol):
    return LoopbackCluster(default_topology(
        N_SITES, protocol=protocol, n_vars=N_VARS,
        replication_factor=2 if protocol in PARTIAL else None))


def _var_at(protocol, *sites):
    placement = build_placement(_cluster(protocol).topology)
    return next(v for v in range(N_VARS)
                if set(sites) <= set(placement.replicas(v)))


def _log():
    # names the receiver with clocks it has already reached (none), and
    # other sites with clocks it never checks
    return (PiggybackEntry(FORGED, 0, frozenset({TARGET, WRITER})),
            PiggybackEntry(WRITER, 3, frozenset({FORGED})),
            PiggybackEntry(FORGED, 4, frozenset()))


def _messages(protocol):
    """Valid messages from FORGED that TARGET would take as they are."""
    var = _var_at(protocol, TARGET, FORGED)
    wid = WriteId(FORGED, 1)
    fm = FetchMessage(var=var, reader=FORGED, request_id=5,
                      requirements=((FORGED, 0), (WRITER, 0)))
    if protocol == "opt-track":
        return [fm,
                OptTrackSM(var=var, value={"k": [1, "x"]}, write_id=wid,
                           log=_log(), issued_at=1.5),
                OptTrackRM(var=var, value=None, write_id=None, log=(),
                           request_id=9),
                OptTrackRM(var=var, value="v", write_id=wid, log=_log(),
                           request_id=9)]
    if protocol == "full-track":
        matrix = MatrixClock(N_SITES)
        matrix.increment(FORGED, [TARGET, FORGED])  # this very write
        elsewhere = MatrixClock(N_SITES)
        elsewhere.increment(FORGED, [FORGED, WRITER])  # gates nothing here
        return [fm,
                FullTrackSM(var=var, value=1, write_id=wid, matrix=matrix,
                            issued_at=1.5),
                FullTrackRM(var=var, value=1, write_id=wid, matrix=elsewhere,
                            request_id=9)]
    if protocol == "opt-track-crp":
        return [CRPSM(var=var, value=[1, 2], write_id=wid,
                      log=((FORGED, 0), (WRITER, 0)), issued_at=1.5)]
    vector = VectorClock(N_SITES)
    vector.increment(FORGED)
    return [OptPSM(var=var, value=1, write_id=wid, vector=vector,
                   issued_at=1.5)]


#: (protocol, message or None, valid frame bytes): every message type,
#: an ack and a hello
BASE_FRAMES = [
    (protocol, m, data_frame(FORGED, 0, dumps(m)))
    for protocol in ("opt-track", "full-track", "opt-track-crp", "optp")
    for m in _messages(protocol)
] + [("opt-track", None, ack_frame(FORGED, 3)),
     ("opt-track", None, hello_frame(FORGED))]


def _with_column_int(message, index, new):
    """``message``'s data frame with one int of its column replaced,
    re-spelled at whatever width the new int needs."""
    body = dumps(message)
    width, ints = column(body)
    runs = body[6 + width * len(ints):]
    ints[index] = new
    top = max(max(ints), ~min(ints))
    width = max(width, next(w for w in (1, 2, 4, 8) if top < 1 << (8 * w - 1)))
    return data_frame(FORGED, 0, raw(type(message), ints, runs, width=width))


def _head(kind, src, number):
    return struct.pack(">BHq", kind, src, number)


@st.composite
def mutated_frames(draw, protocol=None):
    """``(protocol, payload, must_refuse)``."""
    protocol, message, frame = draw(st.sampled_from(
        [b for b in BASE_FRAMES if protocol in (None, b[0])]))
    kinds = ["truncate", "flip", "extend", "head"]
    roles = [] if message is None else layout(message)
    if message is not None:
        kinds += ["count", "length"]
        kinds += ["site"] * any(role == "site" for role, _ in roles)
        kinds += ["time"] * hasattr(message, "issued_at")
        kinds += ["width"] * any(role == "width" for role, _ in roles)
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return protocol, frame[:draw(st.integers(0, len(frame) - 1))], True
    if kind == "extend":
        return protocol, frame + draw(st.binary(min_size=1, max_size=16)), True
    if kind == "flip":
        at = draw(st.integers(0, len(frame) - 1))
        flipped = bytearray(frame)
        flipped[at] ^= draw(st.integers(1, 255))
        flipped = bytes(flipped)
        # a flip that makes the frame claim the bystander is a forgery no
        # check can catch: its sequence number, or the write id it
        # carries, is the bystander's own
        assume(len(flipped) < HEAD_SIZE or flipped[0] not in b"DAH"
               or frame_head(flipped)[1] != WRITER)
        try:
            forged = loads(flipped, N_SITES, HEAD_SIZE)
        except CodecError:
            forged = None
        assume(getattr(getattr(forged, "write_id", None), "site", None)
               != WRITER)
        return protocol, flipped, False
    if kind == "head":
        frame_kind, _, number = frame_head(frame)
        src = draw(st.sampled_from([TARGET, N_SITES, 99, 0xFFFF]))
        if frame_kind == HELLO:  # never a channel's frame, whoever sends
            return protocol, _head(HELLO, src, number), True
        if draw(st.booleans()):  # or a sequence number below "none"
            number = draw(st.sampled_from([-2, -(2 ** 63)]))
            src = FORGED
        return protocol, _head(frame_kind, src, number) + frame[HEAD_SIZE:], True
    if kind == "count":  # a count, a clock's width: inflated
        index = draw(st.sampled_from(
            [k for k, (role, _) in enumerate(roles)
             if role in ("count", "width")]))
        delta = draw(st.sampled_from([1, 2, 255, 2 ** 31, 2 ** 62]))
        return protocol, _with_column_int(
            message, index, roles[index][1] + delta), True
    if kind == "width":  # a whole clock of another width, cells and all
        n = draw(st.sampled_from([1, N_SITES - 1, N_SITES + 1, 40]))
        field = "matrix" if hasattr(message, "matrix") else "vector"
        clock = (MatrixClock if field == "matrix" else VectorClock)(n)
        return protocol, data_frame(FORGED, 0, dumps(
            dataclasses.replace(message, **{field: clock}))), True
    if kind == "site":
        index = draw(st.sampled_from(
            [k for k, (role, _) in enumerate(roles) if role == "site"]))
        new = draw(st.sampled_from([N_SITES, 99, -1, 2 ** 15, -(2 ** 40)]))
        return protocol, _with_column_int(message, index, new), True
    body = frame[HEAD_SIZE:]
    width, ints = column(body)
    if kind == "length":  # the column's own length, or a sized value's
        at = HEAD_SIZE + 2
        value_at = HEAD_SIZE + 6 + width * len(ints)
        if frame[value_at:value_at + 1] in (b"\x05", b"\x06"):  # sized
            at = draw(st.sampled_from([at, value_at + 1]))
        (old,) = struct.unpack_from(">I", frame, at)
        new = (old + draw(st.sampled_from([1, 7, 2 ** 16, 2 ** 31]))) % 2 ** 32
        return (protocol,
                frame[:at] + struct.pack(">I", new) + frame[at + 4:], True)
    # kind == "time": an issue time (the last 8 bytes) that is not finite
    bad = struct.pack(">d", draw(st.sampled_from(
        [float("nan"), float("inf"), -float("inf")])))
    return protocol, frame[:-8] + bad, True


def _feed(cluster, payload):
    """The live ingress path.  Returns whether the frame was refused."""
    node, transport = cluster.nodes[TARGET], cluster.transports[TARGET]
    before = transport.malformed_frames + node.misaddressed
    try:
        transport.on_frame(payload)
    except CodecError:
        return True
    return transport.malformed_frames + node.misaddressed > before


def _legitimate_write_still_applies(cluster, protocol, settle=True):
    """The bystander's write reaches the target.  ``settle=False`` after
    an accepted mutation: a different valid frame may be a well-formed
    lie that waits forever, which strict settling would report."""
    var = _var_at(protocol, TARGET, WRITER)
    assert cluster.placement.is_replicated_at(var, TARGET)  # a local read
    wid = cluster.write(WRITER, var, "legit")
    if settle:
        cluster.settle()
        assert cluster.read_with_id(TARGET, var) == ("legit", wid)
    else:
        cluster.sim.run()
    assert any(e.kind is EventKind.APPLY and e.site == TARGET
               and e.write_id == (wid.site, wid.clock)
               for e in cluster.history.events)


def test_base_frames_are_valid_and_harmless():
    # the mutations start from frames the target really accepts
    for protocol, message, frame in BASE_FRAMES:
        cluster = _cluster(protocol)
        refused = _feed(cluster, frame)
        assert refused == (frame_head(frame)[0] == HELLO), frame
        cluster.settle()
        _legitimate_write_still_applies(cluster, protocol)


def test_every_cut_and_every_trailing_byte_is_refused():
    # exhaustively, what the property below samples: a refused frame
    # leaves nothing behind, so one cluster takes every cut of a frame
    for protocol, _, frame in BASE_FRAMES:
        cluster = _cluster(protocol)
        for cut in range(len(frame)):
            assert _feed(cluster, frame[:cut]), (frame, cut)
        for extra in (b"\x00", b"\xff", frame):
            assert _feed(cluster, frame + extra), (frame, extra)
        cluster.settle()  # nothing was buffered, nothing is owed
        assert cluster.nodes[TARGET].protocol.pending_count == 0
        _legitimate_write_still_applies(cluster, protocol)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_frames())
def test_mutated_frames_never_take_the_node_down(case):
    protocol, payload, must_refuse = case
    cluster = _cluster(protocol)
    refused = _feed(cluster, payload)  # raises nothing but CodecError
    assert refused or not must_refuse, payload[:200]
    if refused:
        cluster.settle()  # nothing was buffered, nothing is owed
        assert cluster.nodes[TARGET].protocol.pending_count == 0
    _legitimate_write_still_applies(cluster, protocol, settle=refused)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases=st.sampled_from(["opt-track", "full-track"]).flatmap(
    lambda p: st.lists(mutated_frames(p).filter(lambda case: case[2]),
                       min_size=2, max_size=6)))
def test_a_burst_of_mutated_frames(cases):
    # several in a row into one node: a refused frame leaves no state
    # behind that turns the next one into a crash.  (Only frames that
    # must be refused: two accepted flips can be one member's replay of
    # a write, a lie the core's FIFO assertion stops.)
    protocol = cases[0][0]
    cluster = _cluster(protocol)
    for _, payload, _ in cases:
        assert _feed(cluster, payload)
    _legitimate_write_still_applies(cluster, protocol)


# ----------------------------------------------------------------------
# the HTTP head parser: a pure function of the bytes, however they arrive
# ----------------------------------------------------------------------
_HEAD_LINES = st.sampled_from([
    b"GET /kv/1 HTTP/1.1", b"PUT /kv/0 HTTP/1.0", b"GET /status", b"",
    b"Content-Length: 3", b"Content-Length: 4", b"content-length:x",
    b"Content-Length: " + b"9" * 30, b"Transfer-Encoding: chunked",
    b"Connection: close", b"Connection: Keep-Alive, x", b"X-Pad: 1",
    b"\xff\xa0:\x85", b": :", b"x" * (api.MAX_LINE_BYTES + 1),
])
_ANY_BYTES = st.one_of(
    st.binary(max_size=300),
    st.lists(st.tuples(_HEAD_LINES, st.sampled_from([b"\r\n", b"\n", b"\r"])),
             max_size=api.MAX_HEADER_LINES + 5)
    .map(lambda lines: b"".join(a + b for a, b in lines)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_ANY_BYTES, cut=st.integers(0, 400))
def test_parser_fails_typed_on_any_bytes(data, cut):
    def requests(*segments):
        """What the segments parse to: the requests, then how it ended."""
        buffer, scan, out = bytearray(), api._START, []
        for segment in segments:
            buffer += segment
            while True:
                try:
                    request, at = api.parse(buffer, scan)  # raises nothing else
                except api._Refusal as refusal:
                    return out + [refusal.status]
                if request is None:
                    scan = at
                    break
                assert 0 < at <= len(buffer)
                del buffer[:at]
                scan = api._START
                out.append(request)
        return out + [bytes(buffer)]

    assert requests(data[:cut], data[cut:]) == requests(data)


class _Wire:
    """The transport of a connection nobody dialled: keeps what is written."""

    def __init__(self):
        self.written = bytearray()
        self.write = self.written.extend

    def get_extra_info(self, name):
        return self

    def setsockopt(self, *args):
        pass

    def close(self):
        pass

    resume_reading = write_eof = close


class _Store:
    """As much of a ``ServiceNode`` as its HTTP front end asks for, with
    nothing in ``status()`` that depends on the time."""

    topology = default_topology(N_SITES, n_vars=N_VARS)

    def __init__(self):
        self.http_requests = self.http_connections = 0
        self.http_clients = set()
        self.values = {}

    def status(self):
        return {"http_requests": self.http_requests}

    def put(self, var, value):
        self.values[var] = value
        return WriteId(TARGET, len(self.values))

    def read(self, var, on_done):
        on_done((self.values.get(var), None, False))


def _replies(segments):
    connection, wire = api._HttpConnection(_Store()), _Wire()
    connection.connection_made(wire)
    for segment in segments:
        connection.data_received(segment)
    return bytes(wire.written)


_PIPELINE = (b'PUT /kv/2 HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n'
             b'{"value": 7}'
             b"GET /kv/2 HTTP/1.1\nHost: x\n\n"          # bare line ends
             b"GET /status HTTP/1.1\r\nHost: x\n\r\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cuts=st.lists(st.integers(0, len(_PIPELINE)), max_size=12))
def test_any_chunking_of_a_pipeline_gets_the_same_replies(cuts):
    whole = _replies([_PIPELINE])
    assert whole.count(b"HTTP/1.1 200 OK") == 3
    assert b'{"http_requests": 3}' in whole and b'"value": 7' in whole
    edges = [0, *sorted(cuts), len(_PIPELINE)]
    assert _replies(_PIPELINE[a:b] for a, b in zip(edges, edges[1:])) == whole


def test_a_dribbled_head_is_scanned_once():
    class Counting(bytearray):
        scanned = 0

        def find(self, sub, start=0):
            at = super().find(sub, start)
            Counting.scanned += (len(self) if at < 0 else at + 1) - start
            return at

    head = (b"GET /status HTTP/1.1\r\n"
            + b"X-Pad: %s\r\n" % (b"p" * 60) * api.MAX_HEADER_LINES + b"\r\n")
    buffer, scan = Counting(), api._START
    for k, byte in enumerate(head):
        buffer.append(byte)
        request, scan = api.parse(buffer, scan)
        assert (request is None) == (k < len(head) - 1)
    assert (request.path, scan) == ("/status", len(head))
    # every byte looked at once -- not once per read that followed it
    assert Counting.scanned == len(head)
