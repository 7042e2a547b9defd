"""Tests for the finite-bandwidth network model."""

import pytest

from repro import CausalCluster, ConstantLatency, SimulationConfig, run_simulation
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency as CL
from repro.sim.network import Network


def make_net(bandwidth=None, n=3, latency_ms=10.0):
    sim = Simulator()
    net = Network(sim, n, CL(latency_ms), bandwidth_bytes_per_ms=bandwidth,
                  collector=MetricsCollector())
    inbox = []
    for i in range(n):
        net.register(i, lambda src, msg, i=i: inbox.append((sim.now, i, msg)))
    return sim, net, inbox


class TestUplinkModel:
    def test_infinite_bandwidth_ignores_size(self):
        sim, net, inbox = make_net(bandwidth=None)
        net.send(0, 1, "big", size_bytes=1_000_000)
        sim.run()
        assert inbox[0][0] == pytest.approx(10.0)

    def test_transmission_time_added(self):
        sim, net, inbox = make_net(bandwidth=100.0)  # 100 B/ms
        net.send(0, 1, "m", size_bytes=500)          # 5 ms on the wire
        sim.run()
        assert inbox[0][0] == pytest.approx(15.0)    # 5 transmit + 10 latency

    def test_uplink_serializes_senders_messages(self):
        sim, net, inbox = make_net(bandwidth=100.0)
        net.send(0, 1, "a", size_bytes=500)   # occupies uplink 0-5
        net.send(0, 2, "b", size_bytes=500)   # must wait: departs at 5
        sim.run()
        times = {msg: t for t, _, msg in inbox}
        assert times["a"] == pytest.approx(15.0)
        assert times["b"] == pytest.approx(20.0)   # 5 queue + 5 transmit + 10

    def test_different_senders_do_not_queue_on_each_other(self):
        sim, net, inbox = make_net(bandwidth=100.0)
        net.send(0, 2, "a", size_bytes=500)
        net.send(1, 2, "b", size_bytes=500)
        sim.run()
        times = {msg: t for t, _, msg in inbox}
        assert times["a"] == pytest.approx(15.0)
        assert times["b"] == pytest.approx(15.0)

    def test_zero_size_costs_nothing(self):
        sim, net, inbox = make_net(bandwidth=100.0)
        net.send(0, 1, "m", size_bytes=0)
        sim.run()
        assert inbox[0][0] == pytest.approx(10.0)

    def test_uplink_idles_then_reuses(self):
        sim, net, inbox = make_net(bandwidth=100.0)
        net.send(0, 1, "a", size_bytes=100)   # uplink busy until t=1
        sim.run()
        net.send(0, 1, "b", size_bytes=100)   # uplink idle again
        sim.run()
        times = [t for t, _, _ in inbox]
        assert times[0] == pytest.approx(11.0)
        assert times[1] == pytest.approx(sim.now)  # 11 + 1 + 10 = 22
        assert times[1] == pytest.approx(22.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), 2, bandwidth_bytes_per_ms=0.0, collector=MetricsCollector())
        with pytest.raises(ValueError):
            Network(Simulator(), 2, bandwidth_bytes_per_ms=-5.0, collector=MetricsCollector())

    def test_fifo_still_holds_under_bandwidth(self):
        sim, net, inbox = make_net(bandwidth=50.0)
        for k in range(10):
            net.send(0, 1, k, size_bytes=100 * (10 - k))  # shrinking sizes
        sim.run()
        msgs = [m for _, _, m in inbox]
        assert msgs == list(range(10))


class TestBandwidthEndToEnd:
    def test_fat_metadata_slows_visibility(self):
        """Full-Track's n^2 matrices cost real time under constrained
        uplinks; Opt-Track's pruned logs cost much less."""
        lags = {}
        for protocol in ("full-track", "opt-track"):
            cfg = SimulationConfig(
                protocol=protocol, n_sites=10, write_rate=0.5,
                ops_per_process=40, seed=0,
                latency=ConstantLatency(10.0),
                bandwidth_bytes_per_ms=50.0,   # 50 KB/s uplinks
                warmup_fraction=0.0,
            )
            result = run_simulation(cfg)
            lags[protocol] = result.collector.visibility_lags.mean
        assert lags["opt-track"] < lags["full-track"]

    def test_infinite_bandwidth_matches_default(self):
        base = SimulationConfig(protocol="optp", n_sites=4, ops_per_process=25,
                                seed=3, latency=ConstantLatency(10.0))
        a = run_simulation(base).summary()
        b = run_simulation(
            SimulationConfig(protocol="optp", n_sites=4, ops_per_process=25,
                             seed=3, latency=ConstantLatency(10.0),
                             bandwidth_bytes_per_ms=None)
        ).summary()
        assert a == b

    def test_cluster_accepts_bandwidth_and_stays_causal(self):
        c = CausalCluster(4, protocol="opt-track", n_vars=8,
                          replication_factor=2,
                          latency=ConstantLatency(5.0),
                          bandwidth_bytes_per_ms=20.0)
        for k in range(10):
            c.write(k % 4, k % 8, k)
            c.advance(30.0)
        c.settle()
        c.check().raise_if_violated()

    def test_counts_unaffected_by_bandwidth(self):
        cfgs = [
            SimulationConfig(protocol="opt-track", n_sites=5, ops_per_process=30,
                             seed=1, bandwidth_bytes_per_ms=bw,
                             warmup_fraction=0.0)
            for bw in (None, 10.0)
        ]
        counts = [run_simulation(c).collector.total_message_count for c in cfgs]
        assert counts[0] == counts[1]
