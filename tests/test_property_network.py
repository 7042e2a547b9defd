"""Property-based tests for the network substrate and chaos scenarios."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import CausalCluster
from repro.core.errors import DepartedSiteError
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import (
    AdversarialLatency,
    ConstantLatency,
    LogNormalLatency,
    Network,
    PerPairLatency,
    UniformLatency,
)

latency_models = st.sampled_from([
    UniformLatency(0.1, 500.0),
    LogNormalLatency(median_ms=20.0, sigma=1.5),
    AdversarialLatency(0.5, 2000.0),
])


N_TWIN = 5

#: latency models covering the three draw paths: the uniform block
#: buffer, a per-call pair-dependent model, and no draw at all
twin_latencies = st.sampled_from([
    UniformLatency(1.0, 80.0),
    PerPairLatency([[abs(i - j) * 7.0 for j in range(N_TWIN)]
                    for i in range(N_TWIN)], jitter_ms=5.0),
    ConstantLatency(12.0),
])

#: a run of multicasts, each preceded by letting the clock advance
twin_rounds = st.lists(
    st.tuples(
        st.floats(0.0, 40.0),                                 # advance
        st.integers(0, N_TWIN - 1),                           # src
        st.lists(st.integers(0, N_TWIN - 1), max_size=8),     # dests
        st.sampled_from([0.0, 40.0, 900.0]),                  # size
    ),
    min_size=1, max_size=12,
)


def _twin(latency, seed, **kwargs):
    """One network plus the log of what it hands to each receiver."""
    sim = Simulator()
    if kwargs.pop("chaos", False):
        plan = FaultPlan.uniform(drop_rate=0.1, dup_rate=0.05, spike_rate=0.05)
        kwargs["faults"] = FaultInjector(plan, seed=seed)
    net = Network(sim, N_TWIN, latency, rng=np.random.default_rng(seed),
                  collector=MetricsCollector(), **kwargs)
    log = []
    for i in range(N_TWIN):
        net.register(i, lambda src, msg, i=i: log.append((sim.now, src, i, msg)))
    return sim, net, log


def _observable(sim, net):
    """Everything a caller (or the kernel) can tell two networks apart by."""
    return (
        sorted((item[0], item[1]) for item in sim._queue),
        {key: (st_.messages, st_.last_delivery)
         for key, st_ in net._channels.items()},
        net.total_messages,
        net.app_messages_in_flight,
        net.departed_drops,
    )


def _run_twins(latency, seed, rounds, *, retire=None, **kwargs):
    """Drive one network with ``multicast`` and its twin with the loop
    of ``send``s the port defines it as; they must never differ."""
    sim_m, net_m, log_m = _twin(latency, seed, **kwargs)
    sim_s, net_s, log_s = _twin(latency, seed, **kwargs)
    if retire is not None:
        net_m.retire_site(retire)
        net_s.retire_site(retire)
    for k, (advance, src, dests, size) in enumerate(rounds):
        sim_m.run(until=sim_m.now + advance)
        sim_s.run(until=sim_s.now + advance)
        message = ("m", k)
        errors = []
        for net, fan_out in (
            (net_m, lambda: net_m.multicast(src, dests, message,
                                            size_bytes=size)),
            (net_s, lambda: [net_s.send(src, dst, message, size_bytes=size)
                             for dst in dests]),
        ):
            try:
                fan_out()
                errors.append(None)
            except DepartedSiteError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert _observable(sim_m, net_m) == _observable(sim_s, net_s)
    sim_m.run()
    sim_s.run()
    assert log_m == log_s
    assert _observable(sim_m, net_m) == _observable(sim_s, net_s)
    return log_m


class TestMulticastIsKSends:
    """``Network.multicast`` against the ``Transport.multicast`` contract:
    the same delivery times, kernel ``(time, seq)`` keys, channel stats
    and counters as one ``send`` per destination, on every path."""

    @given(latency=twin_latencies, seed=st.integers(0, 10_000),
           rounds=twin_rounds)
    @settings(max_examples=60, deadline=None)
    def test_seed_path(self, latency, seed, rounds):
        log = _run_twins(latency, seed, rounds)
        assert len(log) == sum(len(dests) for _a, _s, dests, _z in rounds)

    @given(latency=twin_latencies, seed=st.integers(0, 10_000),
           rounds=twin_rounds)
    @settings(max_examples=30, deadline=None)
    def test_with_a_bandwidth_model(self, latency, seed, rounds):
        _run_twins(latency, seed, rounds, bandwidth_bytes_per_ms=50.0)

    @given(latency=twin_latencies, seed=st.integers(0, 10_000),
           rounds=twin_rounds)
    @settings(max_examples=30, deadline=None)
    def test_with_a_fault_plan(self, latency, seed, rounds):
        _run_twins(latency, seed, rounds, chaos=True)

    @given(seed=st.integers(0, 10_000), rounds=twin_rounds,
           retire=st.integers(0, N_TWIN - 1))
    @settings(max_examples=30, deadline=None)
    def test_with_a_departed_destination(self, seed, rounds, retire):
        # same sends before the same DepartedSiteError (or, for a
        # departed *source*, the same counted drops)
        _run_twins(UniformLatency(1.0, 80.0), seed, rounds, retire=retire)

    def test_departed_destination_raises_after_the_earlier_sends(self):
        sim, net, log = _twin(ConstantLatency(5.0), 0)
        net.retire_site(3)
        with pytest.raises(DepartedSiteError):
            net.multicast(0, [1, 2, 3, 4], "m")
        sim.run()
        assert [(src, dst) for _t, src, dst, _m in log] == [(0, 1), (0, 2)]


class TestNetworkProperties:
    @given(
        latency=latency_models,
        seed=st.integers(0, 10_000),
        sends=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_per_channel_always(self, latency, seed, sends):
        sim = Simulator()
        net = Network(sim, 4, latency, rng=np.random.default_rng(seed),
                      collector=MetricsCollector())
        received: dict[int, list] = {i: [] for i in range(4)}
        for i in range(4):
            net.register(i, lambda src, msg, i=i: received[i].append((src, msg)))
        sequence: dict[tuple[int, int], int] = {}
        for src, dst in sends:
            key = (src, dst)
            sequence[key] = sequence.get(key, 0) + 1
            net.send(src, dst, sequence[key])
        sim.run()
        # per channel, payloads (their send sequence numbers) arrive sorted
        for dst, items in received.items():
            per_src: dict[int, list] = {}
            for src, msg in items:
                per_src.setdefault(src, []).append(msg)
            for msgs in per_src.values():
                assert msgs == sorted(msgs)

    @given(
        seed=st.integers(0, 10_000),
        n_msgs=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_message_lost_or_duplicated(self, seed, n_msgs):
        sim = Simulator()
        net = Network(sim, 3, AdversarialLatency(), rng=np.random.default_rng(seed),
                      collector=MetricsCollector())
        got = []
        for i in range(3):
            net.register(i, lambda src, msg: got.append(msg))
        for k in range(n_msgs):
            net.send(k % 3, (k + 1) % 3, k)
        sim.run()
        assert sorted(got) == list(range(n_msgs))

    @given(
        seed=st.integers(0, 10_000),
        pause_after=st.integers(0, 10),
        n_msgs=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_pause_resume_preserves_order_and_delivery(
        self, seed, pause_after, n_msgs
    ):
        sim = Simulator()
        net = Network(sim, 2, UniformLatency(1.0, 50.0),
                      rng=np.random.default_rng(seed), collector=MetricsCollector())
        got = []
        net.register(1, lambda src, msg: got.append(msg))
        net.register(0, lambda src, msg: None)
        for k in range(min(pause_after, n_msgs)):
            net.send(0, 1, k)
        net.pause_site(1)
        for k in range(min(pause_after, n_msgs), n_msgs):
            net.send(0, 1, k)
        sim.run()
        net.resume_site(1)
        sim.run()  # the flush is scheduled through the event loop
        assert got == list(range(n_msgs))


class TestChaosClusters:
    """Random pauses + adversarial latency + every protocol."""

    @given(
        protocol=st.sampled_from(
            ["optp", "opt-track-crp", "full-track", "opt-track", "hb-track"]
        ),
        seed=st.integers(0, 5_000),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pause_storm_stays_causal(self, protocol, seed, data):
        n = 4
        kw = {}
        if protocol in ("full-track", "opt-track"):
            kw["replication_factor"] = data.draw(st.integers(1, n))
        c = CausalCluster(n, protocol=protocol, n_vars=6, seed=seed,
                          latency=AdversarialLatency(1.0, 400.0), **kw)
        paused: set[int] = set()
        for step in range(data.draw(st.integers(3, 15))):
            action = data.draw(st.integers(0, 3))
            site = data.draw(st.integers(0, n - 1))
            if action == 0 and site not in paused:
                c.pause_site(site)
                paused.add(site)
            elif action == 1 and site in paused:
                c.resume_site(site)
                paused.discard(site)
            elif action == 2:
                var = data.draw(st.integers(0, 5))
                c.write(site, var, step)
                c.advance(data.draw(st.floats(0.0, 100.0)))
            else:
                # reads only from unpaused sites and, under partial
                # replication, only of locally replicated variables
                # (remote reads could block forever on a paused server)
                if site in paused:
                    continue
                local = c.placement.vars_at(site)
                if local:
                    var = local[data.draw(st.integers(0, len(local) - 1))]
                    target = c.placement.fetch_site(var, site)
                    if target == site:
                        c.read(site, var)
        for site in list(paused):
            c.resume_site(site)
        c.settle()
        assert c.pending_messages() == 0
        c.check().raise_if_violated()
