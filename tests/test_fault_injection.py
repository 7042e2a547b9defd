"""Fault-injection tests: paused (stalled) sites.

The paper's system model has no crash-stop failures — processes are
asynchronous and may be arbitrarily slow.  ``Network.pause_site`` models
exactly that extreme: a site that receives nothing for a while.  The
protocols must keep the rest of the system live, preserve causality
throughout, and catch the stalled site up completely on resume.
"""

import pytest

from repro import CausalCluster, ConstantLatency
from repro.memory.store import BOTTOM
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency as CL
from repro.sim.network import Network
from repro.verify.convergence import check_convergence


def make(protocol="optp", n=4, **kw):
    kw.setdefault("latency", ConstantLatency(10.0))
    kw.setdefault("n_vars", 8)
    return CausalCluster(n, protocol=protocol, **kw)


class TestNetworkPause:
    def test_held_messages_counted(self):
        sim = Simulator()
        net = Network(sim, 2, CL(5.0), collector=MetricsCollector())
        seen = []
        net.register(0, lambda s, m: seen.append(m))
        net.register(1, lambda s, m: seen.append(m))
        net.pause_site(1)
        net.send(0, 1, "x")
        net.send(0, 1, "y")
        sim.run()
        assert seen == []
        assert net.held_count(1) == 2
        assert net.is_paused(1)

    def test_resume_flushes_in_order(self):
        sim = Simulator()
        net = Network(sim, 2, CL(5.0), collector=MetricsCollector())
        seen = []
        net.register(1, lambda s, m: seen.append(m))
        net.pause_site(1)
        for k in range(5):
            net.send(0, 1, k)
        sim.run()
        net.resume_site(1)
        # the flush goes through the event loop (kernel-clock-consistent
        # delivery timestamps), not synchronously at resume time
        assert seen == []
        assert net.held_count(1) == 0  # already handed to the kernel
        at_resume = sim.now
        sim.run()
        assert seen == [0, 1, 2, 3, 4]
        assert sim.now == at_resume  # zero-delay flush: clock unchanged

    def test_resume_idempotent(self):
        sim = Simulator()
        net = Network(sim, 2, CL(5.0), collector=MetricsCollector())
        net.register(1, lambda s, m: None)
        net.resume_site(1)  # never paused: no-op
        net.pause_site(1)
        net.resume_site(1)
        net.resume_site(1)
        assert not net.is_paused(1)

    def test_other_sites_unaffected(self):
        sim = Simulator()
        net = Network(sim, 3, CL(5.0), collector=MetricsCollector())
        seen = {1: [], 2: []}
        net.register(1, lambda s, m: seen[1].append(m))
        net.register(2, lambda s, m: seen[2].append(m))
        net.pause_site(1)
        net.send(0, 1, "held")
        net.send(0, 2, "delivered")
        sim.run()
        assert seen[2] == ["delivered"] and seen[1] == []


class TestProtocolsUnderStall:
    @pytest.mark.parametrize("protocol",
                             ["optp", "opt-track-crp", "full-track", "opt-track"])
    def test_stalled_site_catches_up_consistently(self, protocol):
        kw = {"replication_factor": 2} if protocol in ("full-track", "opt-track") else {}
        c = make(protocol=protocol, **kw)
        c.pause_site(2)
        # a causal chain builds while site 2 hears nothing
        v1 = c.placement.vars_at(0)[0]
        c.write(0, v1, "first")
        c.advance(50.0)
        assert c.read(1, v1) == "first"
        v2 = next(v for v in c.placement.vars_at(1) if v != v1)
        c.write(1, v2, "second")
        c.advance(50.0)
        # stalled site saw nothing it replicates change
        for var in c.placement.vars_at(2):
            if var in (v1, v2):
                assert c.protocols[2].ctx.store.read(var).value is BOTTOM
        c.resume_site(2)
        c.settle()
        c.check().raise_if_violated()
        report = check_convergence(c.protocols, c.history)
        assert report.ok and report.divergent == []

    def test_writes_by_stalled_site_still_flow(self):
        c = make(protocol="optp")
        c.pause_site(3)  # inbound only; outbound keeps working
        c.write(3, 0, "from-stalled")
        c.advance(50.0)
        assert c.read(0, 0) == "from-stalled"
        c.resume_site(3)
        c.settle()
        c.check().raise_if_violated()

    def test_settle_refuses_while_paused(self):
        c = make(protocol="optp")
        c.pause_site(1)
        c.write(0, 0, "x")
        with pytest.raises(RuntimeError, match="paused"):
            c.settle()
        c.resume_site(1)
        c.settle()

    def test_long_stall_buffers_dependent_updates_elsewhere(self):
        # under opt-track, updates can depend on a write the stalled
        # site must serve later; everything must drain on resume
        c = make(protocol="opt-track", n=4, replication_factor=2)
        c.pause_site(1)
        for k in range(12):
            c.write(k % 4 if k % 4 != 1 else 0, k % 8, k)
            c.advance(20.0)
        c.resume_site(1)
        c.settle()
        assert c.pending_messages() == 0
        c.check().raise_if_violated()

    def test_visibility_lag_reflects_stall(self):
        c = make(protocol="optp")
        c.collector.start_measuring()
        c.pause_site(1)
        c.write(0, 0, "x")
        c.advance(500.0)
        c.resume_site(1)
        c.settle()
        assert c.collector.visibility_lags.maximum >= 500.0
