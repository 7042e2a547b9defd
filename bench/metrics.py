"""Named metrics derived from a workload's repeats.

Every timing is scaled to the machine's nominal speed (``reference.py``)
and is the median over the timed repeats; latency percentiles pool the
timed repeats' samples.  Counts come from the program's public
result objects (collector tallies, channel counters) or, for call
counts, from the traced repeat's profile.  The names and units are fixed
by ``BENCHMARK.json``; this module only computes values.
"""

from __future__ import annotations

from statistics import median
from typing import Callable, Sequence

from compare import spread
from layers import LAYERS
from record import Repeat, percentile

#: CPU / wall below this means the scheduler, not the program, set the
#: wall time (single-threaded runs measured here sit at ~0.99)
CONTENDED_BELOW = 0.9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _over(timed: Sequence[Repeat]) -> Callable[[str], float]:
    """``count(key)``: the median of one counter over the timed repeats."""
    return lambda key: median([r.counts.get(key, 0) for r in timed])


def end_to_end(timed: Sequence[Repeat], setup_s: float,
               peak_rss_mib: float) -> dict[str, float]:
    """What a user of the system sees; measured with tracing off."""
    count = _over(timed)
    return {
        "setup_s": setup_s,
        "ops_per_s": median([_ratio(r.ops - r.failed, r.normal_s)
                             for r in timed]),
        "peak_rss_mib": peak_rss_mib,
        # the paper's headline (in-window, Sec. V): causal metadata bytes
        # per protocol message, SM + FM + RM
        "meta_bytes_per_msg": _ratio(count("total_metadata_bytes"),
                                     count("total_message_count")),
        # Table IV normalised by the application ops in the same window
        "msgs_per_op": _ratio(
            count("total_message_count"),
            count("measured_ops_write") + count("measured_ops_read")),
    }


def per_layer(timed: Sequence[Repeat], check: Repeat, check_s: float,
              traced: Repeat, self_s: dict[str, float],
              calls: dict[str, int]) -> dict[str, float]:
    """Single-layer numbers: profile self time and shares from the traced
    repeat, counts and client-side timings from the timed repeats."""
    count = _over(timed)
    wall = median([r.normal_s for r in timed])
    msgs = count("lifetime_message_count")
    profiled = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = _ratio(self_s[layer], profiled)

    # pooled over the timed repeats, which all replay one op sequence
    put_ms = [ms for r in timed for ms in r.latencies_ms("PUT")]
    get_ms = [ms for r in timed for ms in r.latencies_ms("GET")]
    on_sim = bool(count("sim_events"))
    msg_counts = [r.counts.get("lifetime_message_count", 0) for r in timed]
    out.update({
        # client-observed latency (live only; 0 on the simulator)
        "put_p50_ms": percentile(put_ms, 0.50),
        "put_p99_ms": percentile(put_ms, 0.99),
        "get_p50_ms": percentile(get_ms, 0.50),
        "get_p99_ms": percentile(get_ms, 0.99),
        "failed_ops_share": _ratio(sum(r.failed for r in timed),
                                   sum(r.ops for r in timed)),
        "core.log.merge_calls": calls.get("core.log:merge", 0),
        "core.log.piggyback_views_calls":
            calls.get("core.log:piggyback_views", 0),
        "core.log.entries_mean": _ratio(count("log_sizes_total"),
                                        count("log_sizes_count")),
        "core.log.entries_max": count("log_entries_max"),
        "core.log.entries_final_max": count("log_entries_final_max"),
        "core.base.pending_sm_peak": count("pending_sm_peak"),
        "core.base.activation_delay_mean_ms": _ratio(
            count("activation_delays_total"),
            count("activation_delays_count")),
        "core.base.remote_read_share": _ratio(count("ops_read_remote"),
                                              count("ops_read")),
        "sim.engine.events": count("sim_events"),
        "sim.engine.events_per_s": _ratio(count("sim_events"), wall),
        "sim.engine.compactions": count("compactions"),
        "sim.network.msgs": msgs * on_sim,
        "sim.network.msgs_per_s": _ratio(msgs, wall) * on_sim,
        "sim.reliable.retransmissions": count("retransmissions"),
        "sim.reliable.spurious_retransmissions":
            count("spurious_retransmissions"),
        "sim.reliable.duplicate_drops": count("duplicate_drops"),
        "sim.reliable.acks_sent": count("acks_sent"),
        "sim.reliable.first_send_share":
            _ratio(msgs, msgs + count("retransmissions")),
        "sim.faults.injected_drops": count("injected_drops"),
        "sim.faults.injected_dups": count("injected_dups"),
        "metrics.sizing.sm_mean_bytes": _ratio(count("SM_bytes"),
                                               count("SM_count")),
        "metrics.sizing.fm_mean_bytes": _ratio(count("FM_bytes"),
                                               count("FM_count")),
        "metrics.sizing.rm_mean_bytes": _ratio(count("RM_bytes"),
                                               count("RM_count")),
        "metrics.sizing.meta_bytes_total": count("total_metadata_bytes"),
        "service.codec.dumps_calls": calls.get("service.codec:dumps", 0),
        "service.codec.loads_calls": calls.get("service.codec:loads", 0),
        "service.api.requests": median([len(r.spans) for r in timed]),
        "service.api.non200": median(
            [sum(s["status"] != 200 for s in r.spans) for r in timed]),
        "service.api.connections_per_op": median(
            [_ratio(r.connections, len(r.spans)) for r in timed]),
        "service.channel.msgs_sent": count("channel_msgs_sent"),
        "service.channel.retransmissions": count("channel_retransmissions"),
        "service.channel.duplicate_drops": count("channel_duplicate_drops"),
        "service.node.close_errors": sum(r.close_errors for r in timed),
        "live.drain_s": median([r.drain_s for r in timed]),
        # as measured (less the sampler's slices), before scaling
        "run.wall_s": median([r.own_s for r in timed]),
        "run.cpu_s": median([r.cpu_s for r in timed]),
        "run.slowdown": median([r.slowdown for r in timed]),
        "run.wall_iqr_share": spread([r.normal_s for r in timed]),
        "run.contended": float(
            median([_ratio(r.cpu_s, r.wall_s) for r in timed])
            < CONTENDED_BELOW),
        "run.repeats": len(timed),
        "run.ops": median([r.ops for r in timed]),
        "run.samples_put": len(put_ms),
        "run.samples_get": len(get_ms),
        # protocol messages across repeats: exactly 0 on the simulator
        # (enforced), the scheduling-dependent spread on the live cluster
        "run.msgs_spread_share": _ratio(max(msg_counts) - min(msg_counts),
                                        median(msg_counts)),
        "trace.overhead_ratio": _ratio(
            traced.own_s, median([r.own_s for r in timed])),
        "verify.check_s": check_s,
        "verify.history_events": check.counts.get("history_events", 0),
        "verify.violations": check.counts.get("violations", 0),
    })
    return out
