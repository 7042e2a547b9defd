"""Unit tests for the FIFO network and latency models."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.network import (
    AdversarialLatency,
    ConstantLatency,
    LogNormalLatency,
    Network,
    PerPairLatency,
    UniformLatency,
)


def make_net(n=3, latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, n, latency, rng=np.random.default_rng(seed))
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.register(i, lambda src, msg, i=i: inboxes[i].append((src, msg)))
    return sim, net, inboxes


class TestLatencyModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        model = ConstantLatency(42.0)
        assert model.sample(0, 1, rng) == 42.0

    def test_uniform_within_bounds(self):
        rng = np.random.default_rng(0)
        model = UniformLatency(10.0, 20.0)
        samples = [model.sample(0, 1, rng) for _ in range(200)]
        assert all(10.0 <= s <= 20.0 for s in samples)
        assert max(samples) - min(samples) > 1.0  # actually varies

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLatency(20.0, 10.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 10.0)

    def test_lognormal_positive(self):
        rng = np.random.default_rng(1)
        model = LogNormalLatency(median_ms=40.0, sigma=0.8)
        samples = [model.sample(0, 1, rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        # median should be in the right ballpark
        assert 25.0 < float(np.median(samples)) < 60.0

    def test_adversarial_spans_orders_of_magnitude(self):
        rng = np.random.default_rng(2)
        model = AdversarialLatency(1.0, 1000.0)
        samples = [model.sample(0, 1, rng) for _ in range(500)]
        assert min(samples) < 5.0
        assert max(samples) > 500.0

    def test_per_pair_matrix(self):
        rng = np.random.default_rng(0)
        model = PerPairLatency([[0, 10], [20, 0]])
        assert model.sample(0, 1, rng) == 10.0
        assert model.sample(1, 0, rng) == 20.0

    def test_per_pair_jitter(self):
        rng = np.random.default_rng(0)
        model = PerPairLatency([[0, 10], [20, 0]], jitter_ms=5.0)
        samples = [model.sample(0, 1, rng) for _ in range(100)]
        assert all(10.0 <= s <= 15.0 for s in samples)

    def test_per_pair_validation(self):
        with pytest.raises(ValueError):
            PerPairLatency([[0, 1, 2], [3, 4, 5]])  # not square
        with pytest.raises(ValueError):
            PerPairLatency([[0, -1], [1, 0]])  # negative
        with pytest.raises(ValueError):
            PerPairLatency([[0, 1], [1, 0]], jitter_ms=-1)


class TestNetwork:
    def test_delivery_invokes_receiver(self):
        sim, net, inboxes = make_net()
        net.send(0, 1, "hello")
        sim.run()
        assert inboxes[1] == [(0, "hello")]

    def test_fifo_per_channel_despite_inverted_latencies(self):
        # adversarial latencies would reorder; FIFO must hold anyway
        sim, net, inboxes = make_net(latency=AdversarialLatency(), seed=7)
        for k in range(50):
            net.send(0, 1, k)
        sim.run()
        received = [msg for _, msg in inboxes[1]]
        assert received == list(range(50))

    def test_cross_channel_reordering_is_allowed(self):
        # messages on different channels may interleave arbitrarily;
        # verify at least one run where the later-sent message on a fast
        # channel overtakes an earlier one on a slow channel
        sim, net, inboxes = make_net(latency=PerPairLatency(
            [[0, 100, 1], [1, 0, 1], [1, 1, 0]]
        ))
        order = []
        net.register(1, lambda src, msg: order.append((src, msg)))
        net.send(0, 1, "slow")
        sim.run(until=0.5)
        net.send(2, 1, "fast")
        sim.run()
        assert order == [(2, "fast"), (0, "slow")]

    def test_multicast_is_one_send_per_destination(self):
        # the transport does not filter: a sender in its own destination
        # list gets the loopback delivery ``send`` would give it (the
        # protocols drop themselves from the list before calling)
        sim, net, inboxes = make_net(n=4)
        assert net.multicast(1, [0, 1, 3], "m") is None
        assert net.total_messages == 3
        assert net.app_messages_in_flight == 3
        sim.run()
        assert inboxes[0] == inboxes[1] == inboxes[3] == [(1, "m")]
        assert inboxes[2] == []
        assert net.channel_stats(1, 3).messages == 1

    def test_multicast_shares_one_message(self):
        sim, net, inboxes = make_net(n=3)
        message = ["shared"]
        net.multicast(0, [1, 2], message, size_bytes=64)
        sim.run()
        assert inboxes[1][0][1] is message
        assert inboxes[2][0][1] is message

    def test_multicast_to_unknown_site_keeps_earlier_sends(self):
        sim, net, inboxes = make_net(n=3)
        with pytest.raises(ValueError):
            net.multicast(0, [1, 7, 2], "m")
        assert net.total_messages == net.app_messages_in_flight == 1
        sim.run()
        assert inboxes[1] == [(0, "m")] and inboxes[2] == []

    def test_send_to_unknown_site_rejected(self):
        sim, net, _ = make_net(n=2)
        with pytest.raises(ValueError):
            net.send(0, 5, "x")
        with pytest.raises(ValueError):
            net.send(-1, 0, "x")

    def test_unregistered_receiver_raises_at_delivery(self):
        sim = Simulator()
        net = Network(sim, 2, ConstantLatency(1.0))
        net.send(0, 1, "x")
        with pytest.raises(RuntimeError, match="no receiver"):
            sim.run()

    def test_channel_stats_count_messages(self):
        sim, net, _ = make_net()
        net.send(0, 1, "a")
        net.send(0, 1, "b")
        net.send(1, 0, "c")
        assert net.channel_stats(0, 1).messages == 2
        assert net.channel_stats(1, 0).messages == 1
        assert net.total_messages == 3

    def test_deterministic_given_seed(self):
        def run_once():
            sim, net, inboxes = make_net(latency=UniformLatency(), seed=5)
            for k in range(20):
                net.send(k % 3, (k + 1) % 3, k)
            sim.run()
            return {i: list(v) for i, v in inboxes.items()}, sim.now

        assert run_once() == run_once()

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), 0)
