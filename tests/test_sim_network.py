"""Unit tests for the FIFO network and latency models."""

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.network import (
    AdversarialLatency,
    ConstantLatency,
    LogNormalLatency,
    Network,
    PerPairLatency,
    UniformLatency,
)
from repro.sim.reliable import ACK_SIZE_BYTES, AckPacket, DataPacket


def make_net(n=3, latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, n, latency, rng=np.random.default_rng(seed), collector=MetricsCollector())
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
        assert net.multicast(1, [0, 1, 3], ["m"] * 3, [0.0] * 3) is None
        assert net.total_messages == 3
        assert net.app_messages_in_flight == 3
        sim.run()
        assert inboxes[0] == inboxes[1] == inboxes[3] == [(1, "m")]
        assert inboxes[2] == []

    def test_multicast_shares_one_message(self):
        sim, net, inboxes = make_net(n=3)
        message = ["shared"]
        net.multicast(0, [1, 2], [message, message], [64, 64])
        sim.run()
        assert inboxes[1][0][1] is message
        assert inboxes[2][0][1] is message

    def test_multicast_to_unknown_site_keeps_earlier_sends(self):
        sim, net, inboxes = make_net(n=3)
        with pytest.raises(ValueError):
            net.multicast(0, [1, 7, 2], ["m"] * 3, [0.0] * 3)
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
        net = Network(sim, 2, ConstantLatency(1.0), collector=MetricsCollector())
        net.send(0, 1, "x")
        with pytest.raises(RuntimeError, match="no receiver"):
            sim.run()

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
            Network(Simulator(), 0, collector=MetricsCollector())


class TestSeedDeliveryRoutes:
    """A seed-path delivery to a departed, traced or paused site takes the
    matching slow case; each test here fails on a delivery that skips its
    check."""

    def test_delivery_to_departed_site_is_dropped(self):
        sim, net, inboxes = make_net()
        net.send(0, 1, "x")
        net.retire_site(1)
        sim.run()
        assert inboxes[1] == []
        assert net.departed_drops == 1
        assert net.app_messages_in_flight == 0

    def test_traced_delivery_emits_msg_deliver(self):
        sim = Simulator()
        tracer = Tracer()
        net = Network(sim, 2, ConstantLatency(5.0), collector=MetricsCollector(),
                      tracer=tracer)
        contexts = []
        net.register(1, lambda src, msg: contexts.append(tracer.current()))
        message = object()
        tracer.msg_send(0, 1, message, ts=0.0, kind="SM", size=8)
        net.send(0, 1, message)
        sim.run()
        delivers = [ev for ev in tracer.events if ev.kind == "msg.deliver"]
        assert [(ev.site, ev.ts) for ev in delivers] == [(1, 5.0)]
        assert contexts == [delivers[0].id]  # the receiver ran inside it
        assert net.app_messages_in_flight == 0

    def test_delivery_to_paused_site_is_held_until_resume(self):
        sim, net, inboxes = make_net()
        net.pause_site(1)
        net.send(0, 1, "a")
        net.send(0, 1, "b")
        sim.run()
        assert inboxes[1] == [] and net.held_count(1) == 2
        assert net.app_messages_in_flight == 0
        net.resume_site(1)
        assert net.app_messages_in_flight == 2
        sim.run()
        assert inboxes[1] == [(0, "a"), (0, "b")]
        assert net.held_count(1) == 0 and net.app_messages_in_flight == 0


def make_chaos_net(n=3):
    """A network under an empty fault plan: every packet goes through
    the chaos transport and arrives unharmed, 5 ms after it left."""
    sim = Simulator()
    net = Network(sim, n, ConstantLatency(5.0), collector=MetricsCollector(),
                  faults=FaultInjector())
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.register(i, lambda src, msg, i=i: inboxes[i].append((src, msg)))
    return sim, net, inboxes


def data(seq, payload="x"):
    return DataPacket(seq, payload, 8.0)


class TestChaosArrivalRoutes:
    """A chaos packet's arrival at a down or departed site, at a handler
    that consumes it, as an ack nobody waits for, or as a duplicate takes
    the matching slow case; each test here fails on an arrival that skips
    its check."""

    def test_packet_to_down_site_reaches_only_the_handlers(self):
        sim, net, inboxes = make_chaos_net()
        seen = []

        def watch(src, dst, packet, dead):
            seen.append((src, dst, dead))
            return False

        net.transport.register_packet_handler(watch)
        net.send(0, 1, "x")  # opens 0 -> 1; its packet lands at t = 5
        net.crash_site(1)
        sim.run(until=6.0)
        assert net.collector.dead_site_drops == 1
        assert seen == [(0, 1, True)]
        receiver = net.transport.channel(0, 1).receiver
        assert receiver.next_expected == 0 and receiver.reorder == {}
        assert net.collector.acks_sent == 0
        assert inboxes[1] == []

    @pytest.mark.parametrize("src, dst", [(0, 2), (2, 0)])
    def test_packet_from_or_to_departed_site_is_void(self, src, dst):
        sim, net, inboxes = make_chaos_net()
        net._transmit_raw(src, dst, data(0), 8.0)
        net.retire_site(2)
        sim.run()
        assert net.departed_drops == 1
        assert net.transport._channels == {}
        assert inboxes[dst] == []

    def test_consuming_handler_stops_ack_and_data_dispatch(self):
        sim, net, inboxes = make_chaos_net()
        seen = []

        def consume(src, dst, packet, dead):
            seen.append((src, dst, packet, dead))
            return True

        net.transport.register_packet_handler(consume)
        net._transmit_raw(0, 1, data(0), 8.0)
        net._transmit_raw(1, 0, AckPacket(0), ACK_SIZE_BYTES)
        sim.run()
        assert seen == [(0, 1, data(0), False), (1, 0, AckPacket(0), False)]
        assert net.transport._channels == {}
        assert inboxes[1] == [] and net.collector.acks_sent == 0

    def test_ack_for_unopened_channel_is_ignored(self):
        sim, net, _ = make_chaos_net()
        net._transmit_raw(1, 0, AckPacket(3), ACK_SIZE_BYTES)
        sim.run()
        assert net.transport._channels == {}

    def test_duplicate_data_packet_is_acked_again(self):
        sim, net, inboxes = make_chaos_net()
        net._transmit_raw(0, 1, data(0), 8.0)
        net._transmit_raw(0, 1, data(0), 8.0)
        sim.run()
        assert inboxes[1] == [(0, "x")]
        assert net.collector.duplicate_drops == 1
        assert net.collector.acks_sent == 2
