"""Tests for the protocol framework: registry, drain loop, metered sends."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro import ConstantLatency
from repro.core.activation import RETEST
from repro.core.base import (
    CausalProtocol,
    ProtocolContext,
    create_protocol,
    get_protocol_class,
    protocol_names,
    register_protocol,
)
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.messages import OptPSM
from repro.core.opt_track import OptTrackNoPruneProtocol, OptTrackProtocol
from repro.memory.replication import RoundRobinPlacement
from repro.memory.store import SiteStore, WriteId
from repro.metrics.collector import MessageKind, MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import Network


def make_ctx(site=0, n=3, placement=None):
    placement = placement or RoundRobinPlacement(n, 4, n)
    sim = Simulator()
    net = Network(sim, n, ConstantLatency(5.0), collector=MetricsCollector())
    return ProtocolContext(
        site=site, n_sites=n, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=net, clock=sim, collector=MetricsCollector(),
    )


class TestRegistry:
    def test_all_protocols_registered(self):
        names = protocol_names()
        for expected in ("full-track", "opt-track", "opt-track-crp", "optp",
                         "opt-track-noprune"):
            assert expected in names

    def test_create_by_name(self):
        proto = create_protocol("optp", make_ctx())
        assert proto.name == "optp"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_protocol_class("nope")

    def test_duplicate_registration_rejected(self):
        class Fake(CausalProtocol):  # pragma: no cover - never instantiated
            name = "optp"

            def write(self, var, value, *, op_index=None): ...
            def _local_read(self, var): ...
            def _serve_fetch(self, src, message): ...
            def _is_rm(self, message): ...
            def _sm_blocker(self, src, message): ...
            def _apply_sm(self, src, message): ...

        with pytest.raises(ValueError, match="duplicate"):
            register_protocol(Fake)

    def test_noprune_variant_flags(self):
        assert OptTrackNoPruneProtocol.prune_on_send is False
        assert OptTrackProtocol.prune_on_send is True
        assert issubclass(OptTrackNoPruneProtocol, OptTrackProtocol)


class TestConstruction:
    def test_full_replication_protocol_rejects_partial_placement(self):
        placement = RoundRobinPlacement(3, 4, 1)
        with pytest.raises(ValueError, match="full replication"):
            create_protocol("optp", make_ctx(placement=placement))

    def test_partial_protocol_accepts_any_placement(self):
        placement = RoundRobinPlacement(3, 4, 1)
        proto = create_protocol("opt-track", make_ctx(placement=placement))
        assert proto.pending_count == 0

    def test_repr(self):
        proto = create_protocol("optp", make_ctx())
        assert "site=0" in repr(proto)


class TestDrainLoop:
    def test_out_of_order_buffering_and_fixpoint(self):
        """Deliver three causally chained CRP updates in reverse order:
        the drain loop must buffer then apply all of them in one cascade."""
        from repro.core.messages import CRPSM
        from repro.memory.store import WriteId

        ctx = make_ctx(site=1, n=3)
        proto = create_protocol("opt-track-crp", ctx)
        m1 = CRPSM(var=0, value="a", write_id=WriteId(0, 1), log=())
        m2 = CRPSM(var=0, value="b", write_id=WriteId(0, 2), log=((0, 1),))
        m3 = CRPSM(var=0, value="c", write_id=WriteId(0, 3), log=((0, 2),))
        proto.on_message(0, m3)
        assert proto.pending_count == 1   # blocked: FIFO gap
        proto.on_message(0, m2)
        assert proto.pending_count == 2   # still blocked on m1
        proto.on_message(0, m1)
        assert proto.pending_count == 0   # cascade applied everything
        assert ctx.store.read(0).value == "c"
        assert proto.applied == [3, 0, 0]

    def test_activation_delay_recorded_only_when_buffered(self):
        from repro.core.messages import CRPSM
        from repro.memory.store import WriteId

        ctx = make_ctx(site=1, n=3)
        ctx.collector.start_measuring()
        proto = create_protocol("opt-track-crp", ctx)
        # applicable immediately: no delay sample
        proto.on_message(0, CRPSM(var=0, value="a", write_id=WriteId(0, 1), log=()))
        assert ctx.collector.activation_delays.count == 0
        # blocked message that unblocks later at a later sim time
        proto.on_message(0, CRPSM(var=0, value="c", write_id=WriteId(0, 3), log=()))
        ctx.clock.schedule(10.0, lambda: proto.on_message(
            0, CRPSM(var=0, value="b", write_id=WriteId(0, 2), log=())
        ))
        ctx.clock.run()
        assert ctx.collector.activation_delays.count == 1
        assert ctx.collector.activation_delays.mean == pytest.approx(10.0)

    def test_send_records_metrics(self):
        ctx = make_ctx(site=0, n=3)
        ctx.collector.start_measuring()
        proto = create_protocol("optp", ctx)
        # receivers needed for delivery
        ctx.network.register(1, lambda s, m: None)
        ctx.network.register(2, lambda s, m: None)
        proto.write(0, "v")
        tally = ctx.collector.tally(MessageKind.SM)
        assert tally.count == 2
        sm = OptPSM(0, "v", WriteId(0, 1), VectorClock(3))
        assert tally.mean_bytes == sm.metadata_size()


class TestVisibilityMetric:
    def test_visibility_lag_measured(self):
        from repro import SimulationConfig, run_simulation

        cfg = SimulationConfig(protocol="optp", n_sites=4, n_vars=6,
                               write_rate=0.5, ops_per_process=30, seed=0,
                               latency=ConstantLatency(40.0),
                               warmup_fraction=0.0)
        result = run_simulation(cfg)
        lags = result.collector.visibility_lags
        assert lags.count > 0
        # constant 40 ms network, no gating stalls: every lag is exactly 40
        assert lags.minimum == pytest.approx(40.0, abs=1e-6)
        assert lags.maximum == pytest.approx(40.0, abs=1e-3)

    def test_visibility_excludes_local_applies(self):
        from repro import SimulationConfig, run_simulation

        cfg = SimulationConfig(protocol="optp", n_sites=3, n_vars=6,
                               write_rate=1.0, ops_per_process=20, seed=0,
                               warmup_fraction=0.0)
        result = run_simulation(cfg)
        writes = result.collector.ops_write
        # each write is applied locally once (not counted) and remotely
        # n-1 times (counted)
        assert result.collector.visibility_lags.count == writes * 2

    def test_summary_contains_visibility(self):
        from repro import SimulationConfig, run_simulation

        cfg = SimulationConfig(protocol="opt-track", n_sites=4, write_rate=0.5,
                               ops_per_process=20, seed=0, warmup_fraction=0.0)
        summary = run_simulation(cfg).summary()
        assert summary["mean_visibility_ms"] > 0
        assert summary["max_visibility_ms"] >= summary["mean_visibility_ms"]


# ----------------------------------------------------------------------
# ready-on-arrival delivery and the shared-message multicast
# ----------------------------------------------------------------------
class CaptureTransport:
    """A ``Transport`` that keeps what it is handed, in order."""

    def __init__(self):
        self.sent = []          # (src, dst, message), one per destination
        self.multicasts = 0

    def send(self, src, dst, message, *, size_bytes=0.0):
        self.sent.append((src, dst, message))

    def multicast(self, src, dests, messages, sizes):
        self.multicasts += 1
        assert len(dests) == len(messages) == len(sizes)
        self.sent.extend((src, dst, message)
                         for dst, message in zip(dests, messages))

    def overloaded(self, site):
        return False

    def check_overload_admission(self, site):
        return None


def make_site(name, site, placement, *, tracer=None, n=3):
    sim = Simulator()
    ctx = ProtocolContext(
        site=site, n_sites=n, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=CaptureTransport(), clock=sim, collector=MetricsCollector(),
        tracer=tracer,
    )
    ctx.collector.start_measuring()
    return create_protocol(name, ctx)


def chained_sms(name, placement, var=0, count=2):
    """``count`` writes of ``var`` by site 0, as addressed to site 1."""
    writer = make_site(name, 0, placement)
    for k in range(count):
        writer.write(var, f"w{k + 1}")
    return [m for _src, dst, m in writer.ctx.network.sent if dst == 1]


def resolution_order(tracer):
    return [(ev.kind, ev.attrs.get("clock")) for ev in tracer.to_trace().events
            if ev.kind in ("sm.activate", "fm.serve", "rm.complete")]


class TestReadyOnArrival:
    @staticmethod
    def always_retest(monkeypatch, cls):
        """Every blocked answer becomes ``RETEST``: a full re-scan on
        every pass."""
        for hook in ("_sm_blocker", "_rm_blocker", "_fm_blocker"):
            gate = getattr(cls, hook)
            monkeypatch.setattr(
                cls, hook, lambda self, src, message, gate=gate:
                None if gate(self, src, message) is None else RETEST)

    def scenario(self, *, legacy):
        """Site 1 holds w2 (needs w1) and a fetch (needs w1) when w1 lands."""
        from repro.core.messages import FetchMessage
        from repro.obs.tracer import Tracer

        placement = RoundRobinPlacement(3, 4, 2)        # var 0 at {0, 1}
        m1, m2 = chained_sms("opt-track", placement)
        tracer = Tracer()
        with pytest.MonkeyPatch.context() as patch:
            if legacy:  # _scans binds the hooks at construction
                self.always_retest(patch, OptTrackProtocol)
            proto = make_site("opt-track", 1, placement, tracer=tracer)
        proto.on_message(0, m2)
        proto.on_message(2, FetchMessage(var=0, reader=2, request_id=0,
                                         requirements=((0, 1),)))
        assert proto.buffered_count == 2 and proto.buffered_arrivals == 2
        proto.on_message(0, m1)
        assert proto.buffered_count == 0
        (_, _, reply), = proto.ctx.network.sent
        return proto, resolution_order(tracer), reply

    def test_direct_apply_finishes_the_pass_it_would_have_been_in(self):
        # w1 is acted on directly; the fetch it unblocks is a later kind
        # and is served in the same pass, the SM it unblocks is the same
        # kind *behind* it and waits for the next — so the reply carries
        # w1, not w2, exactly as under the full re-scan
        proto, order, reply = self.scenario(legacy=False)
        assert proto.buffered_arrivals == 2           # w1 never buffered
        assert order == [("sm.activate", 1), ("fm.serve", None),
                         ("sm.activate", 2)]
        assert reply.value == "w1"
        legacy, legacy_order, legacy_reply = self.scenario(legacy=True)
        assert legacy.buffered_arrivals == 3          # dirty list never empty
        assert (legacy_order, legacy_reply.value) == (order, reply.value)

    def test_arrival_behind_a_none_blocker_entry_is_buffered(self, monkeypatch):
        from repro.core.messages import CRPSM
        from repro.memory.store import WriteId

        self.always_retest(monkeypatch, get_protocol_class("opt-track-crp"))
        proto = create_protocol("opt-track-crp", make_ctx(site=2, n=3))
        proto.on_message(0, CRPSM(var=0, value="late", write_id=WriteId(0, 2),
                                  log=((0, 1),)))
        assert proto.buffered_count == 1
        # ready, but an always-retest entry is parked in the dirty list
        proto.on_message(1, CRPSM(var=1, value="x", write_id=WriteId(1, 1),
                                  log=()))
        assert proto.buffered_arrivals == 2 and proto.buffered_count == 1
        assert proto.applied == [0, 1, 0] and proto.pending_sm_peak == 2

    def test_reentrant_arrival_is_buffered_then_drained(self):
        from repro.core.messages import CRPSM
        from repro.memory.store import WriteId

        proto = create_protocol("opt-track-crp", make_ctx(site=2, n=3))
        inner = CRPSM(var=1, value="x", write_id=WriteId(1, 1), log=())
        apply_sm = proto._apply_sm
        seen = []

        def apply_and_deliver(src, message):
            apply_sm(src, message)
            if message is not inner:
                proto.on_message(1, inner)        # from inside the action
                seen.append((proto.buffered_arrivals, list(proto.applied)))

        proto._scans = ((proto._scans[0][:2] + (apply_and_deliver,)
                         + proto._scans[0][3:]),) + proto._scans[1:]
        proto.on_message(0, CRPSM(var=0, value="a", write_id=WriteId(0, 1),
                                  log=()))
        assert seen == [(1, [1, 0, 0])]           # queued, not run, inside
        assert proto.applied == [1, 1, 0] and proto.buffered_count == 0

    def test_fast_plus_buffered_is_every_arrival(self, monkeypatch):
        from repro import SimulationConfig, run_simulation
        from repro.core import base

        built = []
        init = base._Pending.__init__
        monkeypatch.setattr(
            base._Pending, "__init__",
            lambda self, *a, **kw: (built.append(1), init(self, *a, **kw))[1])
        calls = {"all": 0, "direct": 0}
        on_message = CausalProtocol.on_message

        def counting(self, src, message):
            before = len(built)
            on_message(self, src, message)
            calls["all"] += 1
            calls["direct"] += len(built) == before

        monkeypatch.setattr(CausalProtocol, "on_message", counting)
        result = run_simulation(SimulationConfig(
            protocol="hb-track", n_sites=6, ops_per_process=40, seed=3,
            gap_range_ms=(1.0, 30.0)))
        buffered = sum(p.buffered_arrivals for p in result.protocols)
        assert buffered == len(built) > 0
        assert calls["direct"] + buffered == calls["all"] == sum(
            p._arrival_seq for p in result.protocols)

    @pytest.mark.parametrize("protocol, low, high", [
        ("full-track", 0, 0), ("opt-track", 0, 0),
        ("opt-track-crp", 0, 1), ("optp", 0, 1),
        ("hb-track", 1, 10**9),     # false causality is what buffers
    ])
    def test_buffering_at_the_papers_gaps(self, protocol, low, high):
        # at the default 5-2005 ms gaps the optimal predicates almost
        # never make an arrival wait; tracking -> instead of ->co does
        from repro import SimulationConfig, run_simulation

        for seed in range(3):
            result = run_simulation(SimulationConfig(
                protocol=protocol, n_sites=10, ops_per_process=60, seed=seed))
            buffered = sum(p.buffered_arrivals for p in result.protocols)
            assert low <= buffered <= high, (protocol, seed, buffered)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_each_kind_takes_its_own_scans_row(self, monkeypatch, order):
        # every gate blocks, so each arrival lands in the buffer of the
        # row its class picked, whichever class arrived first
        from repro.core.clocks import MatrixClock
        from repro.core.messages import FetchMessage, FullTrackRM, FullTrackSM
        from repro.memory.store import WriteId

        cls = get_protocol_class("full-track")
        gated = []
        for hook in ("_sm_blocker", "_rm_blocker", "_fm_blocker"):
            monkeypatch.setattr(
                cls, hook, lambda self, src, message, hook=hook:
                gated.append((hook, message)) or (0, 99))
        placement = RoundRobinPlacement(3, 4, 2)
        proto = make_site("full-track", 1, placement)
        sm = FullTrackSM(var=0, value="v", write_id=WriteId(0, 1),
                         matrix=MatrixClock(3))
        rm = FullTrackRM(var=2, value="r", write_id=None,
                         matrix=MatrixClock(3), request_id=0)
        fm = FetchMessage(var=0, reader=2, request_id=0, requirements=())
        messages = (sm, rm, fm)
        for k in order:
            proto.on_message(0, messages[k])
        for kind, hook in enumerate(("_sm_blocker", "_rm_blocker",
                                     "_fm_blocker")):
            pending = proto._scans[kind][0]
            assert [p.message for p in pending] == [messages[kind]]
            assert (hook, messages[kind]) in gated

    def test_wal_records_an_arrival_before_acting_on_it(self):
        from repro.core.messages import CRPSM
        from repro.memory.store import WriteId

        proto = create_protocol("opt-track-crp", make_ctx(site=2, n=3))
        order = []

        class Wal:
            def log_recv(self, src, message):
                order.append(("wal", proto.applied[src]))

        proto._wal = Wal()
        proto.on_message(0, CRPSM(var=0, value="a", write_id=WriteId(0, 1),
                                  log=()))
        assert order == [("wal", 0)] and proto.applied == [1, 0, 0]
        assert proto.buffered_arrivals == 0


class TestSharedMulticast:
    @pytest.mark.parametrize("name", ["full-track", "opt-track-crp", "optp",
                                      "hb-track"])
    def test_one_message_priced_once_for_every_destination(self, name):
        placement = RoundRobinPlacement(4, 4, 4)
        proto = make_site(name, 1, placement, n=4)
        proto.write(0, "v")
        net = proto.ctx.network
        assert net.multicasts == 1
        assert [dst for _src, dst, _m in net.sent] == [0, 2, 3]
        assert len({id(m) for _src, _dst, m in net.sent}) == 1
        message = net.sent[0][2]
        tally = proto.ctx.collector.tally(MessageKind.SM)
        assert tally.count == 3
        assert tally.total_bytes == 3 * message.metadata_size()

    def test_opt_track_sends_a_message_per_destination(self):
        # one multicast whose copies are the per-destination views, each
        # priced on its own and booked together
        placement = RoundRobinPlacement(4, 4, 3)        # var 0 at {0, 1, 2}
        proto = make_site("opt-track", 0, placement, n=4)
        proto.write(0, "v")
        proto.write(0, "w")
        net = proto.ctx.network
        assert net.multicasts == 2
        assert [dst for _src, dst, _m in net.sent] == [1, 2, 1, 2]
        assert len({id(m) for _src, _dst, m in net.sent}) == 4
        assert [m.log.dest for _src, _dst, m in net.sent] == [1, 2, 1, 2]
        tally = proto.ctx.collector.tally(MessageKind.SM)
        assert tally.count == 4
        assert tally.total_bytes == sum(
            m.metadata_size() for _s, _d, m in net.sent)
        (_key, slot), = proto.ctx.collector.message_slots(MessageKind.SM)
        assert slot[2] == sum(len(m.log) for _s, _d, m in net.sent) > 0

    def test_replay_books_and_sends_nothing(self):
        from repro.core.recovery import WalRecord

        proto = make_site("optp", 1, RoundRobinPlacement(3, 4, 3))
        real = proto.ctx
        assert proto.replay([WalRecord("write", var=0, value="v"),
                             WalRecord("write", var=1, value="w")]) == 2
        assert proto.ctx is real and real.network.sent == []
        assert real.collector.tally(MessageKind.SM).count == 0
        assert real.collector.total_message_count == 0
        assert proto.write_clock[1] == 2              # the writes did replay
        proto.write(2, "live")                        # and booking resumes
        assert real.collector.tally(MessageKind.SM).count == 2


# ----------------------------------------------------------------------
# the replica seam: one apply, one write issue, owned by the base
# ----------------------------------------------------------------------
CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"

#: (receiver, method) calls that observe or perform a write's issue and
#: apply, or a read's return: reached from repro.core only through base.py
SEAM_CALLS = {
    ("store", "apply"),
    ("history", "record_write_op"),
    ("history", "record_apply"),
    ("history", "record_read_op"),
    ("tracer", "write_issued"),
    ("collector", "record_operation"),
    ("collector", "record_visibility"),
}


def _receiver(node):
    """The last name of a call's receiver: ``ctx.store`` -> ``store``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _seam_uses(path):
    """Seam calls in ``path``, and its writes to ``self.applied`` /
    ``self.last_write_on`` (whole or by item, annotated or not)."""
    calls, writes = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            key = (_receiver(node.func.value), node.func.attr)
            if key in SEAM_CALLS:
                calls.append((path.name, node.lineno, ".".join(key)))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign,
                                                           ast.AnnAssign))
                   else [])
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in ("applied", "last_write_on")):
                writes.append((path.name, node.lineno, target.attr))
    return calls, writes


class TestReplicaSeam:
    def test_only_the_base_applies_and_observes(self):
        cores = sorted(CORE.glob("*.py"))
        assert {"full_track.py", "opt_track.py", "opt_track_crp.py",
                "optp.py", "hb_track.py"} <= {p.name for p in cores}
        elsewhere = [_seam_uses(p) for p in cores if p.name != "base.py"]
        assert [c for calls, _ in elsewhere for c in calls] == []
        assert [w for _, writes in elsewhere for w in writes] == []
        # the scan is not vacuous: base.py makes every seam call
        base_calls, base_writes = _seam_uses(CORE / "base.py")
        assert {call for _f, _l, call in base_calls} == {
            ".".join(key) for key in SEAM_CALLS}
        assert {attr for _f, _l, attr in base_writes} == {
            "applied", "last_write_on"}

    #: what each core keeps in LastWriteOn for ``wid``
    META = {"full-track": lambda wid: (wid, MatrixClock(3)),
            "opt-track": lambda wid: (wid, frozenset(), ()),
            "opt-track-crp": lambda wid: wid,
            "optp": lambda wid: (wid, VectorClock(3)),
            "hb-track": lambda wid: (wid, VectorClock(3))}

    def _apply(self, proto, clock, value):
        """Apply writer 0's write ``clock`` through the seam, with the
        clock as the new ``applied[0]`` (Full-Track's count is the same
        here: no write of writer 0 is skipped)."""
        wid = WriteId(0, clock)
        proto._apply_write(0, value, wid, clock, self.META[proto.name](wid),
                           0.0)

    def _applied_twice(self, name):
        """``name`` at site 1 with writer 0's first two writes applied."""
        proto = create_protocol(name, make_ctx(site=1))
        self._apply(proto, 1, "a")
        self._apply(proto, 2, "b")
        assert proto.applied == [2, 0, 0]
        return proto

    def _assert_rejected(self, proto, clock):
        stored = proto.last_write_on[0]
        with pytest.raises(AssertionError, match="FIFO violation"):
            self._apply(proto, clock, "bad")
        # nothing changed: the check runs before the mutation
        assert proto.applied == [2, 0, 0]
        assert proto.ctx.store.read(0).value == "b"
        assert proto.last_write_on[0] is stored

    @pytest.mark.parametrize("name", sorted(META))
    @pytest.mark.parametrize("clock", [1, 2])  # below and at applied[0]
    def test_fifo_rejects_a_clock_not_above_applied(self, name, clock):
        self._assert_rejected(self._applied_twice(name), clock)

    @pytest.mark.parametrize("name", ["opt-track-crp", "optp", "hb-track"])
    def test_full_replication_rejects_a_skipped_clock(self, name):
        self._assert_rejected(self._applied_twice(name), 4)

    def test_partial_replication_accepts_a_skipped_clock(self):
        # under partial replication a writer's writes to other variables
        # never land here, so its clocks skip
        proto = self._applied_twice("opt-track")
        self._apply(proto, 5, "c")
        assert proto.applied == [5, 0, 0]

    def test_knows_write_reads_applied(self):
        proto = self._applied_twice("opt-track-crp")
        assert proto.knows_write(WriteId(0, 2)) is True
        assert proto.knows_write(WriteId(0, 3)) is False
        # Full-Track's applied counts applies, not writer clocks
        assert self._applied_twice("full-track").knows_write(WriteId(0, 2)) is None
