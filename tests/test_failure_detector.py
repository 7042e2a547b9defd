"""Heartbeat failure detector: detection, false suspicion, pause/resume.

A true crash must be detected within roughly (timeout + one heartbeat
interval); a partition must produce *false* suspicions that clear on
heal; suspicion must pause the reliable channel (no retransmission burn)
and resume with a flush when the subject answers again.
"""

import pytest

from repro import (
    CausalCluster,
    ConstantLatency,
    CrashEvent,
    DetectorPolicy,
    FaultPlan,
    RetransmitPolicy,
    SimulationConfig,
    run_simulation,
)

FAST_RETX = RetransmitPolicy(base_rto_ms=120.0, max_rto_ms=2000.0, jitter_ms=10.0)


class TestDetectorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorPolicy(heartbeat_interval_ms=0.0)
        with pytest.raises(ValueError):
            DetectorPolicy(heartbeat_interval_ms=100.0, timeout_ms=50.0)
        with pytest.raises(ValueError):
            DetectorPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            DetectorPolicy(timeout_ms=300.0, max_timeout_ms=100.0)


class TestDetection:
    def test_true_crash_detected_within_bound(self):
        """Constant latency, no drops: detection latency is bounded by
        timeout + one heartbeat interval + delivery latency, and there
        are no false suspicions."""
        policy = DetectorPolicy(heartbeat_interval_ms=50.0, timeout_ms=200.0)
        plan = FaultPlan.build(crashes=(CrashEvent(1, 500.0, 1400.0),))
        result = run_simulation(SimulationConfig(
            protocol="optp", n_sites=4, n_vars=8, ops_per_process=20,
            seed=1, latency=ConstantLatency(10.0),
            fault_plan=plan, fault_seed=0, retransmit=FAST_RETX,
            detector=policy,
        ))
        col = result.collector
        assert col.crashes == 1
        assert col.detection_latency.count == 1
        assert 0 < col.detection_latency.mean <= 200.0 + 50.0 + 10.0 + 1.0
        assert col.false_suspicions == 0
        assert result.crash_manager.detector.heartbeats_sent > 0

    def test_downtime_and_catchup_recorded(self):
        plan = FaultPlan.build(crashes=(CrashEvent(2, 400.0, 1300.0),))
        result = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=4, n_vars=8, ops_per_process=20,
            seed=2, latency=ConstantLatency(10.0),
            fault_plan=plan, fault_seed=0, retransmit=FAST_RETX,
        ))
        col = result.collector
        assert col.downtime.count == 1
        assert col.downtime.mean == pytest.approx(900.0)
        assert col.catchup_latency.count == 1
        assert col.catchup_latency.mean >= 0.0
        assert col.sync_messages > 0


class TestFalseSuspicion:
    def make(self):
        return CausalCluster(
            4, protocol="optp", n_vars=6,
            latency=ConstantLatency(10.0), fault_plan=FaultPlan(),
            retransmit=FAST_RETX, crash_recovery=True,
            detector=DetectorPolicy(heartbeat_interval_ms=50.0,
                                    timeout_ms=200.0),
        )

    def test_partition_raises_and_heals_false_suspicion(self):
        c = self.make()
        det = c.crash_manager.detector
        c.write(0, var=0, value=1)
        c.advance(100.0)
        assert not det.suspected
        c.partition({3})
        c.advance(600.0)  # heartbeats across the cut are severed
        assert det.suspects(0, 3) and det.suspects(3, 0)
        assert c.collector.false_suspicions > 0
        assert (0, 3) in c.network.transport.paused_pairs
        c.heal()
        c.advance(600.0)  # next heartbeats cross and clear the suspicion
        assert not det.suspected
        assert not c.network.transport.paused_pairs
        c.settle()
        c.check().raise_if_violated()

    def test_backoff_raises_pair_timeout_after_false_suspicion(self):
        c = self.make()
        det = c.crash_manager.detector
        base = det.policy.timeout_ms
        c.write(0, var=0, value=1)
        c.partition({3})
        c.advance(600.0)
        assert det._timeout[(0, 3)] > base  # backed off
        c.heal()
        c.advance(600.0)
        # false suspicion keeps the backed-off timeout (adaptive detector)
        assert det._timeout[(0, 3)] > base
        c.settle()

    def test_suspicion_pauses_retransmissions(self):
        """While a pair is paused, the sender's timer must not burn."""
        c = self.make()
        c.write(0, var=0, value=1)
        c.advance(200.0)
        c.partition({3})
        c.advance(700.0)  # suspicion in place
        before = c.collector.retransmissions
        c.advance(2000.0)
        # paused channels do not retransmit into the partition
        assert c.collector.retransmissions - before <= 2
        c.heal()
        c.advance(1000.0)
        c.settle()
        c.check().raise_if_violated()


class TestRecoveryResetsTimeout:
    def test_genuine_rejoin_returns_pair_to_base_timeout(self):
        policy = DetectorPolicy(heartbeat_interval_ms=50.0, timeout_ms=200.0)
        plan = FaultPlan.build(crashes=(CrashEvent(1, 400.0, 1200.0),))
        result = run_simulation(SimulationConfig(
            protocol="optp", n_sites=3, n_vars=6, ops_per_process=15,
            seed=3, latency=ConstantLatency(10.0),
            fault_plan=plan, fault_seed=0, retransmit=FAST_RETX,
            detector=policy,
        ))
        det = result.crash_manager.detector
        # after the true crash + recovery, observers of site 1 are back
        # at the base timeout (the backoff punished a real crash)
        assert det._timeout[(0, 1)] == policy.timeout_ms
        assert not det.suspected
