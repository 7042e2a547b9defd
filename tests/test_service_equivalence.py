"""Sim/live equivalence: same workload, both substrates, same outcome.

The tentpole claim of the port layer is that the simulator and the
service stack are *interchangeable substrates* under the identical
protocol cores.  These tests drive the same seeded workload through

* the discrete-event simulator (:class:`repro.CausalCluster`), and
* in-process loopback service nodes
  (:class:`repro.loopback.LoopbackCluster` — real codec, real reliable
  channels, the simulation kernel as their clock)

through one driver over the surface both share, for every registered
protocol, and require that (a) both histories pass the causal checker,
(b) both clusters converge to identical final stores and (c) both sent
the same number of SMs, FMs and RMs.  Not the same *bytes*: a piggybacked
log's length depends on what had been delivered when the message was
built, so Opt-Track-CRP's SM bytes differ between substrates on nearly
every workload while its message counts never do.

Workloads are single-writer-per-variable (site ``i`` writes variables
``v`` with ``v % n == i``): causal consistency alone does not fix the
winner between two *concurrent* writes to one variable, so final-store
equality across substrates is only a theorem when each variable has a
unique writer.  Reads are unconstrained.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CausalCluster, ConstantLatency, protocol_names
from repro.loopback import LoopbackCluster
from repro.metrics.collector import MessageKind
from repro.service.bootstrap import default_topology

PROTOCOLS = tuple(protocol_names())

N_SITES = 3
N_VARS = 6


def ops_strategy():
    """A short global op sequence; writes respect single-writer-per-var."""
    def fix(op):
        kind, site, var, payload = op
        if kind == "w":
            var = site + N_SITES * (var % (N_VARS // N_SITES))
        return (kind, site, var % N_VARS, payload)

    return st.lists(
        st.tuples(
            st.sampled_from(["w", "r"]),
            st.integers(0, N_SITES - 1),
            st.integers(0, N_VARS - 1),
            st.integers(0, 99),
        ).map(fix),
        min_size=1,
        max_size=25,
    )


def run(cluster, ops):
    """Drive ``ops`` through either substrate; returns the checker's
    report, the final stores and the messages sent per kind."""
    for kind, site, var, payload in ops:
        cluster.advance(1.0)  # space ops out so timestamps advance
        if kind == "w":
            cluster.write(site, var, f"s{site}p{payload}")
        else:
            cluster.read_with_id(site, var)
    cluster.settle()
    # one collector per run on the simulator, one per node on the service
    collectors = {id(p.ctx.collector): p.ctx.collector
                  for p in cluster.protocols}.values()
    counts = {kind.value: sum(c.tally(kind).lifetime_count
                              for c in collectors)
              for kind in MessageKind}
    return cluster.check(), [p.ctx.store for p in cluster.protocols], counts


def store_contents(store):
    return {
        var: (store.read(var).value, store.read(var).write_id)
        for var in store.variables
    }


def assert_equivalent(protocol, ops):
    sim = CausalCluster(N_SITES, protocol=protocol, n_vars=N_VARS,
                        latency=ConstantLatency(5.0))
    live = LoopbackCluster(default_topology(
        N_SITES, protocol=protocol, n_vars=N_VARS))
    # both substrates place by one rule
    assert ([sim.placement.replicas(v) for v in range(N_VARS)]
            == [live.placement.replicas(v) for v in range(N_VARS)])
    sim_report, sim_stores, sim_counts = run(sim, ops)
    live_report, live_stores, live_counts = run(live, ops)
    assert not sim_report.violations, sim_report.violations[:3]
    assert not live_report.violations, live_report.violations[:3]
    assert sim_counts == live_counts, protocol
    assert len(sim_stores) == len(live_stores)
    for site, (sim_store, live_store) in enumerate(
        zip(sim_stores, live_stores)
    ):
        assert store_contents(sim_store) == store_contents(live_store), (
            f"{protocol}: site {site} diverged between substrates"
        )


class TestFixedWorkloads:
    def test_write_everywhere_then_read_everywhere(self):
        ops = [("w", s, s, s) for s in range(N_SITES)]
        ops += [
            ("r", s, v, 0) for s in range(N_SITES) for v in range(N_SITES)
        ]
        for protocol in PROTOCOLS:
            assert_equivalent(protocol, ops)

    def test_causal_chain_across_sites(self):
        # s0 writes x0, s1 reads x0 then writes x1, s2 reads both
        ops = [
            ("w", 0, 0, 1), ("r", 1, 0, 0), ("w", 1, 1, 2),
            ("r", 2, 1, 0), ("r", 2, 0, 0),
        ]
        for protocol in PROTOCOLS:
            assert_equivalent(protocol, ops)

    def test_overwrites_by_same_writer(self):
        ops = [("w", 0, 0, k) for k in range(5)] + [("r", 2, 0, 0)]
        for protocol in PROTOCOLS:
            assert_equivalent(protocol, ops)

    def test_every_placement_runs_alike_on_both_substrates(self):
        # round-robin is the only placement; every site reads every
        # variable, local and remote reads alike
        ops = [("w", s, s, s) for s in range(N_SITES)]
        ops += [("r", s, v, 0) for s in range(N_SITES) for v in range(N_VARS)]
        for protocol in PROTOCOLS:
            assert_equivalent(protocol, ops)


class TestPropertyEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy(), protocol=st.sampled_from(PROTOCOLS))
    def test_random_workloads_agree(self, ops, protocol):
        assert_equivalent(protocol, ops)
