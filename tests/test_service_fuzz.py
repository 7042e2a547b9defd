"""Property: no bytes a peer can send take a node down.

Valid frames — every message type of every protocol, acks, the link
greeting — are mutated the four ways a buggy or hostile peer's bytes go
wrong (cut short, a value of the wrong JSON type, nesting made deeper,
an integer made larger) and fed through the live ingress path,
``codec.loads`` then ``ServiceTransport.on_frame``, of a node in a
3-site loopback cluster.  The only acceptable outcomes are a
:class:`CodecError` from ``loads``, a ``malformed_frames`` bump, a
``misaddressed`` bump (a well-formed message about a variable the node
does not hold), or — the mutation hit something the protocol does not
interpret, or made a frame that is simply a different valid frame —
acceptance.  Never another exception, and afterwards the node still
applies a legitimate write.

What no check at the wire can catch is a *well-formed lie*: a clock from
the future is indistinguishable from a fast writer, and a message gated
on it waits forever.  So quiescence of the whole cluster is asserted
whenever the frame was refused, and the liveness of legitimate traffic
in every case.
"""

import copy

from hypothesis import given, settings
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
    CodecError,
    ack_frame,
    data_frame,
    dumps,
    encode_message,
    hello_frame,
    loads,
)

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


#: (protocol, valid frame bytes)
BASE_FRAMES = [
    (protocol, data_frame(FORGED, 0, encode_message(m)))
    for protocol in ("opt-track", "full-track", "opt-track-crp", "optp")
    for m in _messages(protocol)
] + [("opt-track", ack_frame(FORGED, 3)), ("opt-track", hello_frame(FORGED))]


def _paths(tree, prefix=()):
    """Every position in a parsed frame, containers and leaves alike."""
    yield prefix
    if isinstance(tree, dict):
        for key, child in tree.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(tree, list):
        for index, child in enumerate(tree):
            yield from _paths(child, prefix + (index,))


def _at(tree, path):
    for step in path:
        tree = tree[step]
    return tree


_HOLE = "@@hole@@"


def _spliced(tree, path, raw):
    """The frame's bytes with the value at ``path`` replaced by the raw
    bytes ``raw`` (raw, so that it can hold what ``dumps`` would not
    write: ten thousand brackets, a five-thousand-digit integer)."""
    if not path:
        return raw
    tree = copy.deepcopy(tree)
    _at(tree, path[:-1])[path[-1]] = _HOLE
    return dumps(tree).replace(dumps(_HOLE), raw)


def _identifier_paths(tree):
    """Positions of the integers a node can range-check: site ids,
    variable ids, clock widths.  (A clock, a sequence number or a request
    id it cannot: any value is some writer's future.)"""
    out = [("src",)]
    message = tree.get("m")
    if message is None:
        return out
    kind, fields = message["t"], message["f"]
    if not kind.endswith("RM"):  # an RM is matched by request, not by var
        out.append(("m", "f", 0))
    if kind == "FetchMessage":
        out.append(("m", "f", 1))  # the reader
    for i, field in enumerate(fields):
        tag = field.get("!") if isinstance(field, dict) else None
        at = ("m", "f", i)
        if tag == "wid":
            out.append(at + ("s",))
        elif tag in ("mat", "vec"):
            out.append(at + ("n",))
        elif tag == "prs":
            out += [at + ("v", k) for k in range(0, len(field["v"]), 2)]
        elif tag == "log":
            out += [at + ("w", k) for k in range(len(field["w"]))]
            out += [at + ("d", k, j) for k, dests in enumerate(field["d"])
                    for j in range(len(dests))]
    return out


#: one value of each JSON type, to stand in for a value of another
OTHER_TYPES = [None, True, 7, 2.5, "x", [], [1], {}, {"a": 1}]


@st.composite
def mutated_frames(draw, protocol=None):
    """``(protocol, payload, must_refuse)``."""
    protocol, frame = draw(st.sampled_from(
        [b for b in BASE_FRAMES if protocol in (None, b[0])]))
    tree = loads(frame)
    kind = draw(st.sampled_from(
        ["truncate", "swap", "deepen", "inflate", "out-of-range"]))
    if kind == "truncate":
        return protocol, frame[:draw(st.integers(0, len(frame) - 1))], True
    if kind == "out-of-range":
        path = draw(st.sampled_from(_identifier_paths(tree)))
        old = _at(tree, path)
        raw = b"%d" % draw(st.sampled_from(
            [N_VARS + old, old * 1000 + 999, old + 2 ** 64, -1 - old]))
        return protocol, _spliced(tree, path, raw), True
    paths = list(_paths(tree))
    if kind == "inflate":  # past the interpreter's int-string limit
        path = draw(st.sampled_from(
            [p for p in paths if type(_at(tree, p)) is int]))
        raw = b"%d" % _at(tree, path) + b"7" * 5_000
        return protocol, _spliced(tree, path, raw), True
    path = draw(st.sampled_from(paths))
    old = _at(tree, path)
    # refused unless it landed in the client's value, which is anything
    must_refuse = path[:3] != ("m", "f", 1)
    if kind == "swap":
        new = draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(old)]))
        raw = dumps(new)
        if type(old) is float and type(new) is int:
            must_refuse = False  # a time in whole milliseconds is a time
        if (new is None and path == ("m", "f", 2)
                and tree["m"]["t"].endswith("RM")):
            must_refuse = False  # "never written": an RM may say so
    else:
        depth = draw(st.sampled_from([1, 2, 40, 600, 5_000, 100_000]))
        raw = b"[" * depth + dumps(old) + b"]" * depth
    return protocol, _spliced(tree, path, raw), must_refuse


def _feed(cluster, payload):
    """The live ingress path.  Returns whether the frame was refused."""
    node, transport = cluster.nodes[TARGET], cluster.transports[TARGET]
    before = transport.malformed_frames + node.misaddressed
    try:
        frame = loads(payload)
    except CodecError:
        return True
    transport.on_frame(frame)
    return transport.malformed_frames + node.misaddressed > before


def _legitimate_write_still_applies(cluster, protocol):
    var = _var_at(protocol, TARGET, WRITER)
    assert cluster.placement.is_replicated_at(var, TARGET)  # a local read
    wid = cluster.write(WRITER, var, "legit")
    cluster.settle()
    assert cluster.read_with_id(TARGET, var) == ("legit", wid)


def test_base_frames_are_valid_and_harmless():
    # the mutations start from frames the target really accepts
    for protocol, frame in BASE_FRAMES:
        cluster = _cluster(protocol)
        assert dumps(loads(frame)) == frame
        refused = _feed(cluster, frame)
        assert refused == (b'"hello"' in frame), frame
        cluster.settle()
        _legitimate_write_still_applies(cluster, protocol)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_frames())
def test_mutated_frames_never_take_the_node_down(case):
    protocol, payload, must_refuse = case
    cluster = _cluster(protocol)
    refused = _feed(cluster, payload)  # raises nothing
    assert refused or not must_refuse, payload[:200]
    if refused:
        cluster.settle()  # nothing was buffered, nothing is owed
        assert cluster.nodes[TARGET].protocol.pending_count == 0
    _legitimate_write_still_applies(cluster, protocol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases=st.sampled_from(["opt-track", "full-track"]).flatmap(
    lambda p: st.lists(mutated_frames(p), min_size=2, max_size=6)))
def test_a_burst_of_mutated_frames(cases):
    # several in a row into one node: a refused frame leaves no state
    # behind that turns the next one into a crash
    protocol = cases[0][0]
    cluster = _cluster(protocol)
    for _, payload, _ in cases:
        _feed(cluster, payload)
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
