"""Port conformance: both substrates structurally satisfy repro.core.ports."""

from repro.core.ports import (
    Clock,
    Durability,
    NullTransport,
    Scheduler,
    TimerService,
    Transport,
)
from repro.service.channel import ServiceTransport
from repro.service.runtime import StepClock
from repro.sim.checkpoint import SiteDisk
from repro.sim.engine import Simulator
from repro.sim.network import Network


def _sim_and_network(n=3):
    sim = Simulator()
    net = Network(sim, n)
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
    def test_step_clock_is_scheduler(self):
        clock = StepClock()
        assert isinstance(clock, Clock)
        assert isinstance(clock, TimerService)
        assert isinstance(clock, Scheduler)

    def test_service_transport_is_transport(self):
        transport = ServiceTransport(
            0, 2, StepClock(), lambda dst, frame: None, lambda src, msg: None
        )
        assert isinstance(transport, Transport)


class TestNullTransport:
    def test_is_transport(self):
        assert isinstance(NullTransport(), Transport)

    def test_is_inert(self):
        null = NullTransport()
        assert null.send(0, 1, object(), size_bytes=10.0) is None
        assert null.overloaded(0) is False
        null.check_overload_admission(0)  # never raises


class TestStepClock:
    def test_time_only_moves_on_demand(self):
        clock = StepClock()
        assert clock.now == 0.0
        clock.tick(5.0)
        assert clock.now == 5.0

    def test_timers_fire_in_deadline_then_arm_order(self):
        clock = StepClock()
        fired = []
        clock.schedule(10.0, lambda: fired.append("b"))
        clock.schedule(5.0, lambda: fired.append("a"))
        clock.schedule(10.0, lambda: fired.append("c"))
        assert clock.advance(20.0) == 3
        assert fired == ["a", "b", "c"]
        assert clock.now == 20.0

    def test_cancelled_timers_do_not_fire(self):
        clock = StepClock()
        fired = []
        handle = clock.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        assert clock.pending_timers == 0
        clock.advance(5.0)
        assert fired == []

    def test_timer_armed_during_callback_fires_same_advance(self):
        clock = StepClock()
        fired = []

        def rearm():
            fired.append(clock.now)
            if len(fired) < 3:
                clock.schedule(2.0, rearm)

        clock.schedule(2.0, rearm)
        clock.advance(10.0)
        assert fired == [2.0, 4.0, 6.0]
