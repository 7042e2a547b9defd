"""Port conformance: both substrates structurally satisfy repro.core.ports."""

from repro.core.ports import (
    Clock,
    Durability,
    NullTransport,
    Scheduler,
    TimerService,
    Transport,
)
from repro.core.recovery import SiteDisk
from repro.metrics.collector import MetricsCollector
from repro.service.channel import ServiceTransport
from repro.sim.engine import Simulator
from repro.sim.network import Network


def _sim_and_network(n=3):
    sim = Simulator()
    net = Network(sim, n, collector=MetricsCollector())
    return sim, net


class TestSimulatorSubstrate:
    """The simulator satisfies the ports with zero adaptation code."""

    def test_simulator_is_clock_and_timer_service(self):
        sim, _ = _sim_and_network()
        assert isinstance(sim, Clock)
        assert isinstance(sim, TimerService)
        assert isinstance(sim, Scheduler)

    def test_network_is_transport(self):
        _, net = _sim_and_network()
        assert isinstance(net, Transport)

    def test_site_disk_is_durability(self):
        assert isinstance(SiteDisk(0), Durability)


class TestServiceSubstrate:
    def test_service_transport_is_transport(self):
        transport = ServiceTransport(
            0, 2, Simulator(), lambda dst, frame: None, lambda src, msg: None,
            collector=MetricsCollector())
        assert isinstance(transport, Transport)


class TestNullTransport:
    def test_is_transport(self):
        assert isinstance(NullTransport(), Transport)

    def test_is_inert(self):
        null = NullTransport()
        assert null.send(0, 1, object(), size_bytes=10.0) is None
        assert null.overloaded(0) is False
        null.check_overload_admission(0)  # never raises

