"""Micro-benchmarks of the hot data structures and the event kernel.

Unlike the exhibit benches (which run whole simulations once), these use
pytest-benchmark's actual timing loops on the operations the profiler
identified as hot paths (docs/architecture.md, "Hot path & performance
model"): per-write piggyback-view construction, log MERGE, activation
predicates, clock merges, message sizing, the live wire codec, and the
kernel's per-event floor.  This is the one place a unit cost is read
from (docs/architecture.md, "How speed is checked"): information, never
a gate — CI runs it with ``--benchmark-only`` and fails on an assertion,
not on a timing.
"""

import numpy as np
import pytest

from repro.core.activation import full_track_sm_ready
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import OptTrackLog, PiggybackEntry
from repro.core.messages import OptTrackSM
from repro.memory.store import WriteId
from repro.metrics.sizing import DEFAULT_SIZE_MODEL
from repro.service import codec
from repro.sim.engine import Simulator

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
                       log=view).metadata_size(DEFAULT_SIZE_MODEL)
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


def test_micro_activation_full_track(benchmark):
    """A_OPT over an n=40 matrix column."""
    m = MatrixClock(N)
    m.increment(0, range(N))
    applied = np.ones(N, dtype=np.int64)

    ready = benchmark(full_track_sm_ready, m, 0, 3, applied)
    assert ready is True


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


def test_micro_message_sizing(benchmark):
    """Per-send metadata pricing of an 80-record Opt-Track SM."""
    log = tuple(build_log().entries())
    sm = OptTrackSM(var=0, value=1, write_id=WriteId(0, 1), log=log)

    size = benchmark(sm.metadata_size, DEFAULT_SIZE_MODEL)
    assert size > DEFAULT_SIZE_MODEL.envelope_opt_track


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
        frame = codec.data_frame(0, 7, codec.encode_message(sm))
        decoded = codec.message_from_wire(codec.loads(frame)["m"], N)
        return decoded, codec.loads(codec.ack_frame(1, 7))

    decoded, ack = benchmark(roundtrip)
    assert decoded == sm and ack == {"k": "ack", "src": 1, "cum": 7}


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
