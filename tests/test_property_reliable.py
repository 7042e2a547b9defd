"""Property test: the reliable channel gives exactly-once FIFO delivery.

For *random* fault plans layered under adversarial latencies, every
message handed to the transport arrives at its destination exactly once
and in per-channel FIFO order — no loss, no duplicates, no reordering
observable above it — on the simulator's driver and the live one.

Fault plans are constrained only enough to guarantee termination:
drop rates stay below 0.5 and any partition heals within the run.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.netpolicy import RetransmitPolicy
from repro.sim.faults import FaultInjector, FaultPlan, Partition
from repro.sim.network import AdversarialLatency

from .test_channel import LiveDriver, SimDriver

N_SITES = 4

#: tight timers so heavily-dropped runs converge in few simulated seconds
POLICY = RetransmitPolicy(base_rto_ms=80.0, max_rto_ms=1000.0, jitter_ms=8.0)

fault_plans = st.builds(
    FaultPlan.uniform,
    drop_rate=st.floats(0.0, 0.45),
    dup_rate=st.floats(0.0, 0.4),
    spike_rate=st.floats(0.0, 0.3),
    spike_ms=st.just((20.0, 600.0)),
    partitions=st.one_of(
        st.just(()),
        st.builds(
            lambda site, start, dur: (Partition([site], start, start + dur),),
            site=st.integers(0, N_SITES - 1),
            start=st.floats(0.0, 500.0),
            dur=st.floats(1.0, 2000.0),
        ),
    ),
)


class TestReliableProperties:
    @pytest.mark.parametrize("make", [SimDriver, LiveDriver],
                             ids=["sim", "live"])
    @given(
        plan=fault_plans,
        fault_seed=st.integers(0, 10_000),
        net_seed=st.integers(0, 10_000),
        sends=st.lists(
            st.tuples(st.integers(0, N_SITES - 1), st.integers(0, N_SITES - 1)),
            min_size=1, max_size=50,
        ),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exactly_once_fifo_under_random_faults(
        self, make, plan, fault_seed, net_seed, sends
    ):
        injector = FaultInjector(plan, rng=np.random.default_rng(fault_seed))
        if make is SimDriver:
            d = SimDriver(POLICY, n=N_SITES, injector=injector,
                          latency=AdversarialLatency(0.5, 800.0),
                          net_seed=net_seed)
        else:
            draw = Random(net_seed)
            d = LiveDriver(POLICY, n=N_SITES, injector=injector,
                           latency=lambda: draw.uniform(0.5, 800.0))
            # a live node never sends to itself (frames claiming to come
            # from the receiving site are rejected as malformed)
            sends = [(src, dst) for src, dst in sends if src != dst]

        sent: dict[tuple[int, int], int] = {}
        for src, dst in sends:
            key = (src, dst)
            d.send(src, dst, sent.get(key, 0))
            sent[key] = sent.get(key, 0) + 1
        d.settle()

        # exactly once, in send order, on every channel — and nothing
        # arrived on channels never sent on
        received: dict[tuple[int, int], list] = {}
        for dst, arrivals in d.got.items():
            for src, msg in arrivals:
                received.setdefault((src, dst), []).append(msg.request_id)
        for key, count in sent.items():
            assert received.get(key, []) == list(range(count)), (
                f"channel {key}: sent {count}, got {received.get(key)}"
            )
        assert set(received) <= set(sent)
        # the transport fully drained: no retransmission timer still live
        assert all(d.host(site).unacked_count() == 0
                   for site in range(N_SITES))
