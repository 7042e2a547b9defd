"""Observability: causal tracing, metrics, trace analysis.

The subsystem has four parts (see ``docs/observability.md``):

* :class:`Tracer` — structured, causally-linked span events for every
  operation, message hop, and buffered-update activation;
* sinks — in-memory, JSONL (:func:`write_jsonl` / :func:`load_trace`),
  and Chrome ``trace_event`` JSON (:func:`write_chrome`) loadable in
  Perfetto with one track per site;
* analysis — :func:`summarize_trace`, :func:`slowest_activations` and
  causal-chain reconstruction, :func:`diff_traces`;
* metrics — :class:`MetricsRegistry` (labeled counters, gauges and
  summaries, read at quiescence), the :class:`MetadataLedger`
  per-component byte accounting, Prometheus/JSONL/console exporters,
  and the :class:`HeartbeatReporter` live progress lines.

Everything is opt-in: with ``tracer=None`` (the default everywhere) the
instrumented subsystems run byte-identical to the un-instrumented code,
and a registry reads the run's own stores once the run is over.
"""

from .analyze import (
    MessageChain,
    TraceIndex,
    activation_wait_stats,
    causal_chain,
    diff_traces,
    format_chain,
    slowest_activations,
    summarize_trace,
    visibility_stats,
)
from .export import (
    HeartbeatReporter,
    diff_snapshots,
    ledger_table,
    registry_snapshot,
    to_prometheus,
    write_prometheus,
    write_snapshot_json,
)
from .ledger import MetadataLedger, decompose_message
from .metrics import Counter, Gauge, MetricsRegistry, Summary
from .sinks import load_trace, to_chrome, write_chrome, write_jsonl
from .tracer import Trace, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "Trace",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Summary",
    "MetadataLedger",
    "decompose_message",
    "HeartbeatReporter",
    "to_prometheus",
    "write_prometheus",
    "registry_snapshot",
    "write_snapshot_json",
    "ledger_table",
    "diff_snapshots",
    "write_jsonl",
    "load_trace",
    "to_chrome",
    "write_chrome",
    "TraceIndex",
    "MessageChain",
    "summarize_trace",
    "visibility_stats",
    "activation_wait_stats",
    "slowest_activations",
    "causal_chain",
    "format_chain",
    "diff_traces",
]
