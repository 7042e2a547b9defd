"""Crash–recovery walkthrough: a site dies, restarts, and rejoins.

The chaos layer (see ``examples/chaos_recovery.py``) keeps protocols
correct when the *network* misbehaves; this example kills a *process*.
A crash loses everything volatile — reorder buffers, retransmit timers,
an in-progress remote read — but the durability layer has been
journaling since construction: every operation hits a write-ahead log
before it is acknowledged, and a periodic checkpoint bounds how much of
that log a restart must replay.

The walkthrough:

1. a five-site Opt-Track cluster does some work (checkpoints tick);
2. site 2 crashes; the failure detector's heartbeats go unanswered,
   its peers suspect it and pause retransmissions into the corpse;
3. the cluster keeps writing — updates for the dead site queue durably
   at their senders, not on the wire;
4. site 2 restarts: checkpoint restore + WAL replay rebuild its exact
   pre-crash protocol state, then anti-entropy catch-up drains the
   backlog;
5. the causal checker certifies the full history and every replica
   converges — the crash is invisible in the final state.

Run:  python examples/crash_recovery.py
"""

from repro import CausalCluster, ConstantLatency, DetectorPolicy, FaultPlan
from repro.verify.convergence import check_convergence

VICTIM = 2


def main() -> None:
    cluster = CausalCluster(
        n_sites=5,
        protocol="opt-track",
        n_vars=10,
        replication_factor=3,
        latency=ConstantLatency(12.0),
        seed=7,
        fault_plan=FaultPlan(),          # chaos transport (reliable substrate)
        crash_recovery=True,             # WAL + checkpoints + detector
        checkpoint_interval_ms=200.0,
        detector=DetectorPolicy(heartbeat_interval_ms=60.0, timeout_ms=250.0),
    )

    print("1. warm up: twelve writes, checkpoints ticking underneath")
    for step in range(12):
        cluster.write(step % 5, var=step % 10, value=f"warm-{step}")
        if step % 3 == 2:
            cluster.advance(120.0)
    cluster.settle()
    print(f"   checkpoints taken so far: {cluster.collector.checkpoints_taken}")

    # one more write, younger than the last checkpoint: at crash time it
    # exists only in the victim's WAL (and in its peers' inboxes)
    cluster.write(VICTIM, var=3, value="logged-not-checkpointed")
    cluster.advance(50.0)

    print(f"2. site {VICTIM} crashes (volatile state gone; disk survives)")
    cluster.crash_site(VICTIM)

    print("3. the cluster keeps writing; the dead site's mail queues durably")
    live = [s for s in range(5) if s != VICTIM]
    for step in range(6):
        cluster.write(live[step % len(live)], var=step % 10,
                      value=f"missed-{step}")
        cluster.advance(80.0)
    cluster.advance(600.0)  # heartbeats time out -> peers suspect + pause
    det = cluster.crash_manager.detector
    suspecters = sorted(o for (o, s) in det.suspected if s == VICTIM)
    print(f"   detector: sites {suspecters} now suspect site {VICTIM}")
    pb = cluster.pending_breakdown()
    print(f"   pending: {pb['held_for_crashed']} held for the crashed site, "
          f"{pb['in_flight']} in flight between live sites")

    print(f"4. site {VICTIM} restarts: checkpoint + WAL replay, then catch-up")
    cluster.recover_site(VICTIM)
    cluster.settle()
    col = cluster.collector
    print(f"   replayed {col.wal_replays.mean:.0f} WAL records "
          f"(checkpoint was {col.checkpoint_age.mean:.0f} ms old); "
          f"catch-up took {col.catchup_latency.mean:.0f} ms "
          f"over {col.catchup_rounds.mean:.0f} sync rounds")

    print("5. verify: the crash left no trace in the final state")
    report = cluster.check()
    report.raise_if_violated()
    conv = check_convergence(cluster.protocols, cluster.history)
    assert conv.ok and conv.divergent == []
    assert cluster.pending_messages() == 0
    print(f"   causal checker: OK over {report.n_operations} operations")
    print("   convergence: every replica of every variable agrees")

    print(f"\ncrash-recovery cost: "
          f"{cluster.crash_manager.detector.heartbeats_sent} heartbeats, "
          f"{col.sync_messages} sync messages, "
          f"{col.checkpoints_taken} checkpoints, "
          f"detection in {col.detection_latency.mean:.0f} ms, "
          f"downtime {col.downtime.mean:.0f} ms")
    print("a crash is just a long pause with amnesia — the WAL remembers.")


if __name__ == "__main__":
    main()
