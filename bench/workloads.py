"""The six workloads of record: what each runs, why, and its frozen inputs.

Inputs are generated here from the seed and handed to the program, which
never sees the seed's meaning: simulator workloads call
``generate_workload`` once and pass the schedule as ``workload=``; live op
plans come from the benchmark's own ``random.Random(seed)``.

Seed 1 is the development seed (its input digests are recorded below, a
mismatch fails the run as "inputs changed"); seed 2 is the held-out seed
a later claim must also hold on.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.experiments.runner import SimulationConfig, run_simulation
from repro.sim.faults import FaultPlan
from repro.workload.generator import generate_workload

import live
from record import Repeat, collector_counts
from reference import SpeedSampler

#: the paper's q; every workload uses it
N_VARS = 100
WRITE_RATE = 0.5


@dataclass(frozen=True)
class Spec:
    """One workload: a fixed op count on one substrate."""

    name: str
    why: str
    substrate: str  # "sim" | "live"
    protocol: str
    n_sites: int
    #: simulator: ops per process; live: ops per repeat over all sites
    ops: int
    #: None = the protocol's own default (p = n for full replication)
    replication_factor: Optional[int] = None
    #: simulator only: every message through the lossy substrate
    chaos: bool = False
    #: live only: site i writes only v % n == i (the ``repro loadgen`` mix)
    owner_writes: bool = False
    #: SHA-256 of the generated input for seed 1
    seed1_sha256: str = ""

    def scaled(self, factor: float) -> "Spec":
        """Same shape, ``factor`` times the ops (warm-up, smoke)."""
        floor = 5 if self.substrate == "sim" else 50
        return replace(self, ops=max(floor, round(self.ops * factor)),
                       seed1_sha256="")

    def reduced(self) -> "Spec":
        """The instance small enough for the quadratic causal checker."""
        if self.substrate == "sim":
            return replace(self, n_sites=10, ops=min(self.ops, 100),
                           replication_factor=None, seed1_sha256="")
        return replace(self, ops=min(self.ops, 1000), seed1_sha256="")


WORKLOADS: tuple[Spec, ...] = (
    Spec(
        name="sim_opt_track_n40",
        why="Opt-Track at the paper's largest n, p=12, 100 ops/process: "
            "core.log + protocol + messages + activation dominate, sim.* "
            "is small; a log-merge or piggyback change must show here.",
        substrate="sim", protocol="opt-track", n_sites=40,
        replication_factor=12, ops=100,
        seed1_sha256="669e1078d87ea98870a6b2a23ebba5666295f3067ff54cb26235c3820bc7ba1c",
    ),
    Spec(
        name="sim_full_track_n40",
        why="Full-Track, n=40, 400 ops/process: the only workload on "
            "core.clocks.MatrixClock and the O(n^2) matrix path; logs are "
            "not involved.",
        substrate="sim", protocol="full-track", n_sites=40, ops=400,
        seed1_sha256="bad858e331ba6c1bf6cab5f6dd1e67c3707ac212ead99c82135fff749bfdf1e7",
    ),
    Spec(
        name="sim_crp_n40",
        why="Opt-Track-CRP, full replication, n=40, 250 ops/process: many "
            "small messages, so core.base dispatch, the kernel, the network "
            "and byte accounting show; core.log must not.",
        substrate="sim", protocol="opt-track-crp", n_sites=40, ops=250,
        seed1_sha256="271fe347a848334d4a4176cc666ddd28c26681251970ce64fcb9b341438e6cea",
    ),
    Spec(
        name="sim_chaos_n20",
        why="Opt-Track-CRP, n=20, 250 ops/process, 5% drop 2% dup 2% spike: "
            "every message through sim.reliable, sim.faults and "
            "core.netpolicy, which the other sim workloads bypass entirely.",
        substrate="sim", protocol="opt-track-crp", n_sites=20, ops=250,
        chaos=True,
        seed1_sha256="8b7fc39e627ff451ea3346151a71e36bbac3b3b98e2d182255324425e8e099ba",
    ),
    Spec(
        name="live_mixed",
        why="5 in-process ServiceNodes over loopback TCP, Opt-Track p=2, "
            "3000 ops, any site writes any variable: logs stay small, so "
            "per-request asyncio/socket/HTTP cost dominates.",
        substrate="live", protocol="opt-track", n_sites=5,
        replication_factor=2, ops=3000,
        seed1_sha256="4a1852e2031079cb8df786349dd63bc5af8d4811d7ae2bbe8336ec6c4b979e96",
    ),
    Spec(
        name="live_owner_writes",
        why="Same cluster, 2000 ops of the shipped loadgen mix (site i "
            "writes only v%n==i): piggybacked logs grow without bound, so "
            "per-byte codec + json cost dominates.",
        substrate="live", protocol="opt-track", n_sites=5,
        replication_factor=2, ops=2000, owner_writes=True,
        seed1_sha256="4b5827a42e65519215f4c867a469acc83dbb31a70ad55e97d1940f5b57b18e28",
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}


@dataclass
class Prepared:
    """A workload's generated input, ready to be run any number of times."""

    spec: Spec
    digest: str
    #: simulator: the config and the schedule handed to it
    config: Optional[SimulationConfig] = None
    schedule: object = None
    #: live: what the cluster is built from and each client's op plan
    cluster_args: Optional[dict] = None
    plans: Optional[list] = None


def prepare(spec: Spec, seed: int) -> Prepared:
    """Generate ``spec``'s input from ``seed`` (same seed, same input)."""
    sha = hashlib.sha256()
    if spec.substrate == "live":
        plans = live.op_plan(seed, n_sites=spec.n_sites, n_vars=N_VARS,
                             ops=spec.ops, owner_writes=spec.owner_writes)
        sha.update(json.dumps(plans).encode("utf-8"))
        return Prepared(
            spec, sha.hexdigest(), plans=plans,
            cluster_args=dict(protocol=spec.protocol, n_sites=spec.n_sites,
                              n_vars=N_VARS,
                              replication_factor=spec.replication_factor))
    config = SimulationConfig(
        protocol=spec.protocol, n_sites=spec.n_sites, n_vars=N_VARS,
        replication_factor=spec.replication_factor, write_rate=WRITE_RATE,
        ops_per_process=spec.ops, seed=seed,
        fault_plan=FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02,
                                     spike_rate=0.02) if spec.chaos else None,
        fault_seed=seed,
    )
    schedule = generate_workload(
        spec.n_sites, n_vars=N_VARS, write_rate=WRITE_RATE,
        ops_per_process=spec.ops, seed=seed)
    for site in schedule.schedules:
        for at, op in site.items:
            sha.update(f"{site.site} {at!r} {op.kind.value} {op.var} "
                       f"{op.value}\n".encode("ascii"))
    return Prepared(spec, sha.hexdigest(), config=config, schedule=schedule)


def _sim_repeat(prepared: Prepared, sampler: SpeedSampler,
                keep_history: bool, max_events: Optional[int]) -> Repeat:
    config = replace(prepared.config, record_history=keep_history,
                     max_events=max_events)
    out = Repeat(ops=prepared.schedule.total_operations)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        # strict=True: returns only at quiescence, every schedule finished
        # and every protocol buffer drained
        with sampler:
            result = run_simulation(config, workload=prepared.schedule)
            out.wall_s = time.perf_counter() - t0
    except RuntimeError:
        out.failed = out.ops
        return out
    out.cpu_s = time.process_time() - cpu0
    out.counts = collector_counts([result.collector], result.protocols)
    out.counts["sim_events"] = result.total_sim_events
    out.counts["compactions"] = result.protocols[0].ctx.clock.compactions
    out.failed = out.ops - int(out.counts["ops_write"]
                               + out.counts["ops_read"])
    if keep_history:
        out.history, out.placement = result.history, result.placement
        out.counts["history_events"] = len(result.history)
    return out


def run_repeat(prepared: Prepared, sampler: SpeedSampler, *,
               keep_history: bool = False,
               inject_failed_op: bool = False) -> Repeat:
    """One repeat of the prepared input on a fresh system, ``sampler``
    running from the first op to quiescence.

    ``inject_failed_op`` is the self-test's fault: the simulator gets an
    event budget it must exceed, a live client one request that the API
    answers 404.
    """
    gc.collect()
    if prepared.spec.substrate == "sim":
        out = _sim_repeat(prepared, sampler, keep_history,
                          100 if inject_failed_op else None)
    else:
        plans = prepared.plans
        if inject_failed_op:
            plans = [plans[0] + [(-1, 0, "r", N_VARS, None)], *plans[1:]]
        out = live.run_repeat(prepared.cluster_args, plans, sampler,
                              keep_history=keep_history)
    out.absorb(sampler)
    return out


def setup_once(spec: Spec, seed: int) -> Prepared:
    """Everything between process start and the first timed op, imports
    aside: input generation and, live, a cluster booted until all
    n(n-1) peer links show in ``status()["peer_links"]``."""
    prepared = prepare(spec, seed)
    if spec.substrate == "live":
        live.boot_once(prepared.cluster_args)
    return prepared
