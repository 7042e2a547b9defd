"""Micro-benchmarks of the hot data structures and the event kernel.

Unlike the exhibit benches (which run whole simulations once), these use
pytest-benchmark's actual timing loops on the operations the profiler
identified as hot paths (docs/architecture.md, "Hot path & performance
model"): per-write piggyback-view construction, log MERGE, activation
gates, clock merges, message sizing, the live wire codec, and the
kernel's per-event floor.  This is the one place a unit cost is read
from (docs/architecture.md, "How speed is checked"): information, never
a gate — CI runs it with ``--benchmark-only`` and fails on an assertion,
not on a timing.
"""

import gc

import numpy as np
import pytest

from repro.core.activation import full_track_sm_blocker
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
from repro.experiments.runner import SimulationConfig, build_system
from repro.memory.store import WriteId
from repro.metrics.collector import MessageKind
from repro.obs.ledger import decompose_message
from repro.service import codec
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan

N = 40  # paper-scale system size


def build_log(n_entries=80, n_sites=N, seed=0):
    rng = np.random.default_rng(seed)
    log = OptTrackLog()
    for k in range(n_entries):
        writer = int(rng.integers(0, n_sites))
        clock = k + 1
        dests = set(map(int, rng.choice(n_sites, size=rng.integers(0, 4),
                                        replace=False)))
        log.insert(writer, clock, dests)
    return log


def fresh_copy_of(log):
    """``benchmark.pedantic`` setup for the benches that consume their
    log: one ``copy()`` per round, made outside the timer (building the
    log — 80 ``rng.choice`` calls — costs ~45x a merge, so it is built
    once)."""
    return lambda: ((log.copy(),), {})


def test_micro_piggyback_views(benchmark):
    """One write's send path over an n=40-scale log: the per-destination
    views (the walk that also strips the log) plus building and pricing
    the SM each one rides on."""
    dests = frozenset(range(0, 12))  # p = 12 at n = 40
    wid = WriteId(0, 1)

    def views_and_sizes(log):
        views, base = log.piggyback_views(dests)
        sizes = [
            OptTrackSM(var=0, value=1, write_id=wid,
                       log=view).metadata_size()
            for view in views.values()
        ]
        return views, base, sizes

    views, base, sizes = benchmark.pedantic(
        views_and_sizes, setup=fresh_copy_of(build_log()), rounds=2_000)
    assert len(views) == len(sizes) == 12
    assert all(view.base is base for view in views.values())


def test_micro_log_merge(benchmark):
    """Read-time MERGE of a typical piggybacked log."""
    incoming = tuple(
        PiggybackEntry(int(j % N), int(100 + j), frozenset({int(j % 7)}))
        for j in range(40)
    )
    applied = np.zeros(N, dtype=np.int64)

    def merge_into_fresh(log):
        log.merge(incoming, self_site=3, applied=applied)
        return len(log)

    size = benchmark.pedantic(
        merge_into_fresh, setup=fresh_copy_of(build_log()), rounds=2_000)
    assert size > 0


def test_micro_activation_opt_track(benchmark):
    """A_OPT over one SM's piggyback view (the per-delivery check)."""
    views, _ = build_log().piggyback_views(frozenset(range(0, 12)))
    applied = [1000] * N

    blocker = benchmark(views[3].blocker, 3, applied)
    assert blocker is None


@pytest.mark.parametrize("state", ["ready", "blocked"])
def test_micro_activation_full_track(benchmark, state):
    """A_OPT over an n=40 matrix column, with the plain-list ``applied``
    every protocol passes: writer 0's next SM at site 3 after one write
    to site 3 from every other writer, all applied (ready) or all but
    the last writer's (blocked, found at the end of the column)."""
    m = MatrixClock(N)
    m.increment(0, range(N))
    for j in range(1, N):
        m.increment(j, [3])
    applied = [0] + [1] * (N - 1)
    if state == "blocked":
        applied[-1] = 0

    blocker = benchmark(full_track_sm_blocker, m, 0, 3, applied)
    assert blocker == (None if state == "ready" else (N - 1, 1))


def test_micro_matrix_merge(benchmark):
    """Entrywise max of two 40x40 matrices (read-time merge)."""
    rng = np.random.default_rng(0)
    a = MatrixClock(N, rng.integers(0, 100, (N, N)))
    b = MatrixClock(N, rng.integers(0, 100, (N, N)))

    benchmark(a.merge, b)
    assert a.dominates(b)


def test_micro_vector_merge(benchmark):
    rng = np.random.default_rng(0)
    a = VectorClock(N, rng.integers(0, 100, N))
    b = VectorClock(N, rng.integers(0, 100, N))

    benchmark(a.merge, b)
    assert a.dominates(b)


def sizing_samples():
    """One message of each type at its n=40 shape: an FM with three
    requirements, Full-Track's 40 x 40 matrix, one copy's piggyback view
    of an 80-record log at p = 12 (SM) and the stored log plus the
    write's own record (RM), a CRP log naming every other writer, and
    optP's 40-vector."""
    wid = WriteId(0, 1)
    views, stored = build_log().piggyback_views(frozenset(range(0, 12)))
    rm_log = stored + (PiggybackEntry(0, 1, frozenset(range(1, 12))),)
    return [
        FetchMessage(var=0, reader=1, request_id=1,
                     requirements=((2, 5), (3, 1), (7, 9))),
        FullTrackSM(0, 1, wid, MatrixClock(N)),
        FullTrackRM(0, 1, wid, MatrixClock(N), 1),
        OptTrackSM(var=0, value=1, write_id=wid, log=views[3]),
        OptTrackRM(var=0, value=1, write_id=wid, log=rm_log, request_id=1),
        CRPSM(0, 1, wid, tuple((j, j + 1) for j in range(1, N))),
        OptPSM(0, 1, wid, VectorClock(N)),
    ]


@pytest.mark.parametrize("message", sizing_samples(),
                         ids=lambda m: type(m).__name__)
def test_micro_message_sizing(benchmark, message):
    """Per-send metadata pricing of one message of each type."""
    size = benchmark(message.metadata_size)
    assert size == sum(b for _name, b in decompose_message(message))


def test_micro_value_types(benchmark):
    """Construction of the three hottest frozen value types — a log
    record, an Opt-Track SM (wrapping no flat log) and a write id — the
    per-record and per-copy cost of every Opt-Track multicast
    (docs/architecture.md, "Value types")."""
    dests = frozenset({1, 2})
    view = build_log(n_entries=4).piggyback_views(frozenset({1}))[0][1]

    def build():
        entry = PiggybackEntry(3, 7, dests)
        wid = WriteId(3, 7)
        sm = OptTrackSM(0, 1, wid, view, 2.0)
        return entry, wid, sm

    entry, wid, sm = benchmark(build)
    assert (entry.writer, entry.clock, entry.dests) == (3, 7, dests)
    assert (wid.site, wid.clock) == (3, 7)
    assert (sm.var, sm.value, sm.write_id, sm.issued_at) == (0, 1, wid, 2.0)
    assert sm.log is view


def test_micro_matrix_snapshot(benchmark):
    """Per-write matrix snapshot (Full-Track's dominant allocation)."""
    m = MatrixClock(N)
    m.increment(0, range(N))

    snap = benchmark(m.copy)
    assert snap == m


def test_micro_codec_roundtrip(benchmark):
    """An 80-record Opt-Track SM across a live link and the ack back:
    encode + frame, parse + decode (membership-checked), ack."""
    sm = OptTrackSM(var=0, value=1, write_id=WriteId(0, 1),
                    log=tuple(build_log().entries()))

    def roundtrip():
        frame = codec.data_frame(0, 7, codec.dumps(sm))
        assert codec.frame_head(frame) == (codec.DATA, 0, 7)
        decoded = codec.loads(frame, N, codec.HEAD_SIZE)
        return decoded, codec.frame_head(codec.ack_frame(1, 7))

    decoded, ack = benchmark(roundtrip)
    assert decoded == sm and ack == (codec.ACK, 1, 7)


KERNEL_EVENTS = 20_000  # per round


def noop():
    return None


def test_micro_engine_dispatch(benchmark):
    """Kernel schedule + pop + no-op callback — the per-event floor every
    other simulator cost is paid on top of (97 timestamp slots)."""

    def dispatch():
        sim = Simulator()
        for i in range(KERNEL_EVENTS):
            sim.schedule(float(i % 97), noop)
        sim.run()
        return sim.processed_events

    assert benchmark(dispatch) == KERNEL_EVENTS


def noop3(src, dst, payload):
    return None


def test_micro_engine_post_dispatch(benchmark):
    """Kernel post + pop + no-op call — the per-message floor of a
    network delivery, which posts a bare heap tuple (same 97 slots as
    ``test_micro_engine_dispatch``)."""

    def dispatch():
        sim = Simulator()
        for i in range(KERNEL_EVENTS):
            sim.post(float(i % 97), noop3, 0, 1, i)
        sim.run()
        return sim.processed_events

    assert benchmark(dispatch) == KERNEL_EVENTS


def test_micro_engine_cancel_churn(benchmark):
    """Schedule/cancel churn, retransmit-timer style: 7 of 8 events are
    cancelled before firing (53 timestamp slots), so the heap carries
    tombstones and compacts."""

    def churn():
        sim = Simulator()
        for i in range(KERNEL_EVENTS):
            ev = sim.schedule(float(i % 53), noop)
            if i % 8:
                ev.cancel()
        sim.run()
        return sim.processed_events, sim.pending_events

    fired, left = benchmark(churn)
    assert fired == KERNEL_EVENTS // 8 and left == 0


DELIVERY_WRITES = 100  # per round, each to its 11 or 12 remote replicas


def posted_full_track_writes():
    """``benchmark.pedantic`` setup: a fresh 40-site Full-Track system
    (p = 12, built as every run is) in which site 0 has issued its
    writes — every SM copy a posted delivery waiting in the kernel heap,
    each one ready when it lands."""
    system = build_system(SimulationConfig(
        protocol="full-track", n_sites=N, n_vars=N, replication_factor=12,
        seed=1))
    system.collector.start_measuring()
    writer = system.protocols[0]
    for k in range(DELIVERY_WRITES):
        writer.write((7 * k) % N, k)
    gc.collect()  # the last round's system is garbage: not in the timer
    return (system,), {}


def test_micro_seed_delivery(benchmark):
    """The delivery floor of a Full-Track run: heap pop → the network's
    delivery callback → ``on_message`` → gate → apply (store, applied
    count, wakeup check, visibility sample), for 100 writes' SM copies."""

    def deliver(system):
        system.sim.run()
        return system

    system = benchmark.pedantic(deliver, setup=posted_full_track_writes,
                                rounds=60)
    remote = system.network.total_messages
    assert system.sim.processed_events == remote > DELIVERY_WRITES
    assert system.network.app_messages_in_flight == 0
    assert sum(p.buffered_arrivals for p in system.protocols) == 0
    assert system.collector.visibility_lags.count == remote


CHAOS_SITES = 20  # sim_chaos_n20's system


def posted_chaos_writes():
    """``benchmark.pedantic`` setup: a fresh 20-site Opt-Track-CRP system
    under sim_chaos_n20's fault plan in which site 0 has issued its
    writes — every SM copy a first transmission on its channel, lost,
    duplicated or delayed as the seeded fault stream says."""
    system = build_system(SimulationConfig(
        protocol="opt-track-crp", n_sites=CHAOS_SITES, n_vars=N, seed=1,
        fault_plan=FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02,
                                     spike_rate=0.02),
        fault_seed=1))
    system.collector.start_measuring()
    writer = system.protocols[0]
    for k in range(DELIVERY_WRITES):
        writer.write(k % N, k)
    gc.collect()  # the last round's system is garbage: not in the timer
    return (system,), {}


def test_micro_chaos_delivery(benchmark):
    """The chaos twin of the seed delivery floor: arrival → channel half
    (ack, reassembly, duplicate suppression) → ``on_message`` → apply,
    plus the acks and retransmissions that rebuild the loss-free FIFO
    channel, until site 0's 100 writes have reached all 19 peers."""
    counts = []

    def deliver(system):
        system.sim.run()
        collector = system.collector
        counts.append((collector.retransmissions, collector.acks_sent,
                       collector.injected_drops))
        return system

    system = benchmark.pedantic(deliver, setup=posted_chaos_writes,
                                rounds=20)
    channels = system.network.transport._channels
    peers = range(1, CHAOS_SITES)
    # every copy delivered exactly once, and nothing left to resend
    assert all(channels[(0, d)].receiver.next_expected == DELIVERY_WRITES
               for d in peers)
    assert system.network.transport.unacked_count() == 0
    assert system.collector.visibility_lags.count == (
        DELIVERY_WRITES * len(peers))
    # the same seeded fault stream every round
    assert len(set(counts)) == 1
    assert counts[0][0] > 0 and counts[0][2] > 0


MULTICAST_WRITES = 100  # per round


def opt_track_write_copies():
    """``benchmark.pedantic`` setup: a fresh 40-site Opt-Track system
    (p = 12) and one write's SM copies from site 0 — the 11 remote
    replicas of variable 0, each with its own piggyback view of an
    n=40-scale log."""
    system = build_system(SimulationConfig(
        protocol="opt-track", n_sites=N, n_vars=N, replication_factor=12,
        seed=1))
    system.collector.start_measuring()
    writer = system.protocols[0]
    dests = system.placement.replica_set(0)
    targets = [d for d in system.placement.replicas(0) if d != 0]
    views, _base = build_log().piggyback_views(dests)
    copies = [OptTrackSM(var=0, value=1, write_id=WriteId(0, 1),
                         log=views[d]) for d in targets]
    gc.collect()  # the last round's system is garbage: not in the timer
    return (writer, targets, copies), {}


def test_micro_opt_track_multicast(benchmark):
    """One Opt-Track write's send path after its views are built: price
    each of the 11 copies, book them with one slot lookup, and fan them
    out in one ``Network.multicast`` (latency draw, FIFO clamp, posted
    kernel entry per copy), for 100 writes."""

    def multicast(writer, targets, copies):
        for _ in range(MULTICAST_WRITES):
            writer._multicast_each(targets, copies)
        return writer

    writer = benchmark.pedantic(multicast, setup=opt_track_write_copies,
                                rounds=60)
    ctx = writer.ctx
    sent = MULTICAST_WRITES * 11
    assert ctx.network.total_messages == ctx.clock.pending_events == sent
    (_key, slot), = ctx.collector.message_slots(MessageKind.SM)
    assert slot[0] == sent
