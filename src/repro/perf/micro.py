"""Micro benchmarks of the hot data structures and the event kernel.

Each bench times a tight loop over one operation the profiler identified
as hot (docs/architecture.md, "Hot path & performance model").  The
reference configuration matches ``benchmarks/bench_micro_structures.py``:
a 40-site system and 80-record Opt-Track logs.

The headline number is ``events_per_sec`` — the event kernel's dispatch
throughput (schedule + pop + callback for no-op events), because every
other cost in a simulation is paid *per kernel event*.  The structure
benches ride along as per-op throughput so a regression can be localized
without a profiler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.activation import full_track_sm_ready
from ..core.clocks import MatrixClock, VectorClock
from ..core.log import OptTrackLog, PiggybackEntry, PiggybackView
from ..core.messages import OptTrackSM
from ..memory.store import WriteId
from ..metrics.sizing import DEFAULT_SIZE_MODEL
from ..service import codec
from ..sim.engine import Simulator

__all__ = ["MICRO_BENCHES", "run_micro", "MicroResult"]

#: paper-scale system size (matches bench_micro_structures)
N = 40


@dataclass(frozen=True, slots=True)
class MicroResult:
    """One micro bench's outcome."""

    name: str
    ops: int
    wall_s: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


def _build_log(n_entries: int = 80, n_sites: int = N, seed: int = 0) -> OptTrackLog:
    rng = np.random.default_rng(seed)
    log = OptTrackLog()
    for k in range(n_entries):
        writer = int(rng.integers(0, n_sites))
        dests = sorted(
            map(int, rng.choice(n_sites, size=rng.integers(0, 4), replace=False))
        )
        log.insert(writer, k + 1, dests)
    return log


def _log_copies(iters: int) -> list[OptTrackLog]:
    """One 80-record log per iteration, for the benches that consume
    theirs.  The log is built once (its 80 ``rng.choice`` calls cost
    ~45x a merge) and copied; :func:`run_micro` calls this outside the
    timer."""
    template = _build_log()
    return [template.copy() for _ in range(iters)]


# ----------------------------------------------------------------------
# bench bodies: each takes an iteration count (or, if it is listed in
# ``_UNTIMED_INPUTS``, what that built from it) and returns ops executed
# ----------------------------------------------------------------------
def _bench_engine_dispatch(iters: int) -> int:
    """Kernel schedule + pop + no-op callback — the per-event floor."""
    sim = Simulator()

    def noop() -> None:
        return None

    for i in range(iters):
        sim.schedule(float(i % 97), noop)
    sim.run()
    return iters


def _bench_engine_cancel_churn(iters: int) -> int:
    """Schedule/cancel churn (retransmit-timer style tombstone load)."""
    sim = Simulator()

    def noop() -> None:
        return None

    survivors = 0
    for i in range(iters):
        ev = sim.schedule(float(i % 53), noop)
        if i % 8:  # 7 of 8 events are cancelled before firing
            ev.cancel()
        else:
            survivors += 1
    sim.run()
    return iters


def _bench_piggyback_views(logs: list[OptTrackLog]) -> int:
    """One write's send path (p = 12 at n = 40): the per-destination
    piggyback views — the walk that also strips the log, so every
    iteration gets its own — plus building and pricing the SM each one
    rides on."""
    dests = frozenset(range(0, 12))
    wid = WriteId(0, 1)
    for log in logs:
        views, _base = log.piggyback_views(dests)
        for view in views.values():
            OptTrackSM(var=0, value=1, write_id=wid,
                       log=view).metadata_size(DEFAULT_SIZE_MODEL)
    return len(logs)


def _bench_log_merge(logs: list[OptTrackLog]) -> int:
    """Read-time MERGE of a typical piggybacked log into a fresh log."""
    incoming = tuple(
        PiggybackEntry(int(j % N), int(100 + j), frozenset({int(j % 7)}))
        for j in range(40)
    )
    applied = np.zeros(N, dtype=np.int64)
    for log in logs:
        log.merge(incoming, self_site=3, applied=applied)
    return len(logs)


def _bench_activation_opt_track(iters: int) -> int:
    """A_OPT over one SM's piggyback view (the per-delivery check): only
    the records of the 80-record log that name the receiver are read."""
    views, _base = _build_log().piggyback_views(frozenset(range(0, 12)))
    view = views[3]
    applied = [1000] * N
    for _ in range(iters):
        view.blocker(3, applied)
    return iters


def _bench_activation_full_track(iters: int) -> int:
    """A_OPT over an n = 40 matrix column."""
    m = MatrixClock(N)
    m.increment(0, range(N))
    applied = np.ones(N, dtype=np.int64)
    for _ in range(iters):
        full_track_sm_ready(m, 0, 3, applied)
    return iters


def _bench_matrix_merge(iters: int) -> int:
    rng = np.random.default_rng(0)
    a = MatrixClock(N, rng.integers(0, 100, (N, N)))
    b = MatrixClock(N, rng.integers(0, 100, (N, N)))
    for _ in range(iters):
        a.merge(b)
    return iters


def _bench_vector_merge(iters: int) -> int:
    rng = np.random.default_rng(0)
    a = VectorClock(N, rng.integers(0, 100, N))
    b = VectorClock(N, rng.integers(0, 100, N))
    for _ in range(iters):
        a.merge(b)
    return iters


def _bench_message_sizing(iters: int) -> int:
    """Per-send metadata pricing of an 80-record Opt-Track SM."""
    log = PiggybackView.from_entries(_build_log().entries())
    sm = OptTrackSM(var=0, value=1, write_id=WriteId(0, 1), log=log)
    for _ in range(iters):
        sm.metadata_size(DEFAULT_SIZE_MODEL)
    return iters


def _bench_matrix_snapshot(iters: int) -> int:
    """Per-write matrix snapshot (Full-Track's dominant allocation)."""
    m = MatrixClock(N)
    m.increment(0, range(N))
    for _ in range(iters):
        m.copy()
    return iters


def _bench_codec_roundtrip(iters: int) -> int:
    """One protocol message across a live link, both directions: an
    80-record Opt-Track SM encoded and framed by the sender, parsed and
    decoded (membership-checked) by the receiver, and the ack that
    answers it built and parsed."""
    log = PiggybackView.from_entries(_build_log().entries())
    sm = OptTrackSM(var=0, value=1, write_id=WriteId(0, 1), log=log)
    for _ in range(iters):
        frame = codec.data_frame(0, 7, codec.encode_message(sm))
        parsed: Any = codec.loads(frame)
        codec.message_from_wire(parsed["m"], N)
        codec.loads(codec.ack_frame(1, 7))
    return iters


#: name -> (bench body, full-mode iterations, quick-mode iterations)
MICRO_BENCHES: dict[str, tuple[Callable[[Any], int], int, int]] = {
    "engine_dispatch": (_bench_engine_dispatch, 120_000, 20_000),
    "engine_cancel_churn": (_bench_engine_cancel_churn, 120_000, 20_000),
    "piggyback_views": (_bench_piggyback_views, 2_000, 300),
    "log_merge": (_bench_log_merge, 500, 80),
    "activation_opt_track": (_bench_activation_opt_track, 20_000, 3_000),
    "activation_full_track": (_bench_activation_full_track, 50_000, 8_000),
    "matrix_merge": (_bench_matrix_merge, 50_000, 8_000),
    "vector_merge": (_bench_vector_merge, 100_000, 15_000),
    "message_sizing": (_bench_message_sizing, 20_000, 3_000),
    "matrix_snapshot": (_bench_matrix_snapshot, 100_000, 15_000),
    "codec_roundtrip": (_bench_codec_roundtrip, 3_000, 500),
}

#: benches whose body consumes its input: name -> builder of the
#: per-iteration inputs, run before the clock starts and handed to the
#: body in place of the iteration count
_UNTIMED_INPUTS: dict[str, Callable[[int], Any]] = {
    "piggyback_views": _log_copies,
    "log_merge": _log_copies,
}


def run_micro(*, quick: bool = False, repeats: int = 5) -> dict:
    """Run the micro suite; best-of-``repeats`` wall time per bench.

    Best-of (not mean-of) because scheduler noise only ever *adds* time;
    five repeats keeps the estimate stable on contended CI runners.

    Returns a JSON-ready dict: per-bench ``{ops, wall_s, ops_per_sec}``
    plus the headline ``events_per_sec`` (the kernel dispatch bench).
    """
    if quick:
        repeats = min(repeats, 2)
    benches: dict[str, dict] = {}
    for name, (body, full_iters, quick_iters) in MICRO_BENCHES.items():
        iters = quick_iters if quick else full_iters
        prepare = _UNTIMED_INPUTS.get(name)
        best = float("inf")
        ops = iters
        for _ in range(repeats):
            arg = iters if prepare is None else prepare(iters)
            t0 = time.perf_counter()  # simcheck: ignore[SIM001] -- benchmark harness
            ops = body(arg)
            wall = time.perf_counter() - t0  # simcheck: ignore[SIM001] -- benchmark harness
            if wall < best:
                best = wall
        benches[name] = {
            "ops": ops,
            "wall_s": round(best, 6),
            "ops_per_sec": round(ops / best, 1) if best > 0 else 0.0,
        }
    return {
        "reference": "bench_micro_structures",
        "events_per_sec": benches["engine_dispatch"]["ops_per_sec"],
        "benches": benches,
    }
