"""Metric exporters: Prometheus text, JSONL snapshots/deltas, console
tables, and the live heartbeat reporter.

Every sink iterates the registry through :meth:`MetricsRegistry.families`
/ :meth:`MetricFamily.samples`, which are name- and label-sorted, and
serializes JSON with ``sort_keys`` — so a same-seed double run produces
byte-identical dumps from every exporter (covered by the double-run diff
test).

The heartbeat writes human-oriented progress lines to a stream
(``sys.stderr`` by default) so long runs can be watched without
polluting machine-readable stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, Optional, Sequence, Union

from .ledger import MetadataLedger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, format_value

__all__ = [
    "METRICS_FORMAT_VERSION",
    "to_prometheus",
    "registry_snapshot",
    "snapshot_delta",
    "write_prometheus",
    "write_snapshot_json",
    "append_snapshot_jsonl",
    "flatten_snapshot",
    "diff_snapshots",
    "ledger_table",
    "HeartbeatReporter",
]

METRICS_FORMAT_VERSION = 1

#: namespace prepended to every exposed Prometheus metric name
PROM_PREFIX = "repro_"


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _prom_labels(names: Sequence[str], values: Sequence[str],
                 extra: Sequence[tuple[str, str]] = ()) -> str:
    pairs = [(k, v) for k, v in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def to_prometheus(registry: MetricsRegistry, *,
                  prefix: str = PROM_PREFIX) -> str:
    """Render the registry (instruments + ledger) as Prometheus text.

    Histograms emit the standard ``_bucket``/``_sum``/``_count`` series
    plus ``_quantile``-labeled gauge lines from the seeded reservoir
    (p50/p95/p99).  The metadata ledger is exposed as
    ``<prefix>metadata_messages_total`` and
    ``<prefix>metadata_bytes_total{component=...}`` from its lifetime
    window (Prometheus counters are lifetime-semantics by definition).
    """
    lines: list[str] = []
    for fam in registry.families():
        name = prefix + fam.name
        if fam.help:
            lines.append(f"# HELP {name} {fam.help}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for values, child in fam.samples():
            if isinstance(child, (Counter, Gauge)):
                label_s = _prom_labels(fam.label_names, values)
                lines.append(f"{name}{label_s} {format_value(child.value)}")
            else:
                assert isinstance(child, Histogram)
                for le, cum in child.cumulative_buckets():
                    label_s = _prom_labels(fam.label_names, values,
                                           extra=(("le", le),))
                    lines.append(f"{name}_bucket{label_s} {cum}")
                label_s = _prom_labels(fam.label_names, values)
                lines.append(f"{name}_sum{label_s} {format_value(child.sum)}")
                lines.append(f"{name}_count{label_s} {child.count}")
                for q, qv in sorted(child.quantiles().items()):
                    qlabel = _prom_labels(fam.label_names, values,
                                          extra=(("quantile", q),))
                    lines.append(f"{name}_quantile{qlabel} {format_value(qv)}")
    lines.extend(_ledger_prometheus(registry.ledger, prefix))
    return "\n".join(lines) + "\n"


def _ledger_prometheus(ledger: MetadataLedger, prefix: str) -> list[str]:
    lines: list[str] = []
    msg_name = prefix + "metadata_messages_total"
    byte_name = prefix + "metadata_bytes_total"
    lines.append(f"# HELP {msg_name} messages recorded by the metadata ledger")
    lines.append(f"# TYPE {msg_name} counter")
    items = sorted(ledger.lifetime.items())
    for (proto, kind, site), cell in items:
        labels = _prom_labels(("kind", "protocol", "site"),
                              (kind, proto, str(site)))
        lines.append(f"{msg_name}{labels} {cell.count}")
    lines.append(f"# HELP {byte_name} piggyback metadata bytes by component")
    lines.append(f"# TYPE {byte_name} counter")
    for (proto, kind, site), cell in items:
        for comp, nbytes in sorted(cell.components.items()):
            labels = _prom_labels(
                ("component", "kind", "protocol", "site"),
                (comp, kind, proto, str(site)))
            lines.append(f"{byte_name}{labels} {nbytes}")
    return lines


def write_prometheus(registry: MetricsRegistry,
                     path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(to_prometheus(registry))
    return path


# ----------------------------------------------------------------------
# JSON snapshots & deltas
# ----------------------------------------------------------------------
def registry_snapshot(registry: MetricsRegistry,
                      meta: Optional[dict] = None) -> dict:
    """Full structured dump: every family, every series, plus the ledger.

    The result is JSON-ready and deterministic (sorted families, sorted
    series, sorted label keys).
    """
    families: dict[str, dict] = {}
    for fam in registry.families():
        series = []
        for values, child in fam.samples():
            labels = dict(zip(fam.label_names, values))
            if isinstance(child, (Counter, Gauge)):
                series.append({"labels": labels,
                               "value": child.value})
            else:
                assert isinstance(child, Histogram)
                series.append({
                    "labels": labels,
                    "count": child.count,
                    "sum": child.sum,
                    "buckets": {le: cum
                                for le, cum in child.cumulative_buckets()},
                    "quantiles": child.quantiles(),
                })
        families[fam.name] = {"kind": fam.kind, "help": fam.help,
                              "series": series}
    snap: dict = {
        "format": METRICS_FORMAT_VERSION,
        "meta": dict(sorted((meta or {}).items())),
        "families": families,
        "ledger": registry.ledger.as_dict(),
    }
    return snap


def write_snapshot_json(registry: MetricsRegistry, path: Union[str, Path],
                        meta: Optional[dict] = None) -> Path:
    path = Path(path)
    path.write_text(_dumps(registry_snapshot(registry, meta)) + "\n")
    return path


def append_snapshot_jsonl(registry: MetricsRegistry, fh: IO[str], *,
                          meta: Optional[dict] = None,
                          previous: Optional[dict] = None) -> dict:
    """Write one snapshot line (plus a delta line when ``previous`` is
    given) to an open JSONL stream; returns the snapshot for chaining."""
    snap = registry_snapshot(registry, meta)
    fh.write(_dumps({"type": "snapshot", **snap}) + "\n")
    if previous is not None:
        delta = snapshot_delta(previous, snap)
        fh.write(_dumps({"type": "delta", "delta": delta}) + "\n")
    return snap


# ----------------------------------------------------------------------
# flatten / diff (repro metrics diff)
# ----------------------------------------------------------------------
def flatten_snapshot(snap: dict) -> dict[str, float]:
    """Flatten a snapshot to ``{dotted.key: number}`` for diffing."""
    flat: dict[str, float] = {}
    for name, fam in sorted(snap.get("families", {}).items()):
        for entry in fam["series"]:
            label_s = ",".join(f"{k}={v}"
                               for k, v in sorted(entry["labels"].items()))
            base = f"{name}{{{label_s}}}" if label_s else name
            if "value" in entry:
                flat[base] = entry["value"]
            else:
                flat[f"{base}.count"] = entry["count"]
                flat[f"{base}.sum"] = entry["sum"]
    ledger = snap.get("ledger", {})
    for window in ("lifetime", "measured"):
        for row in ledger.get(window, ()):
            base = (f"ledger.{window}.{row['protocol']}"
                    f".{row['kind']}.site{row['site']}")
            flat[f"{base}.count"] = row["count"]
            flat[f"{base}.bytes"] = row["bytes"]
            for comp, nbytes in sorted(row["components"].items()):
                flat[f"{base}.{comp}"] = nbytes
    return flat


def snapshot_delta(old: dict, new: dict) -> dict[str, float]:
    """Numeric change per flattened key between two snapshots."""
    a, b = flatten_snapshot(old), flatten_snapshot(new)
    out: dict[str, float] = {}
    for key in sorted(set(a) | set(b)):
        change = b.get(key, 0) - a.get(key, 0)
        if change:
            out[key] = change
    return out


def diff_snapshots(old: dict, new: dict) -> list[str]:
    """Human-readable per-key diff lines (sorted, deterministic)."""
    a, b = flatten_snapshot(old), flatten_snapshot(new)
    lines: list[str] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        left = "-" if va is None else format_value(va)
        right = "-" if vb is None else format_value(vb)
        lines.append(f"{key}: {left} -> {right}")
    return lines


# ----------------------------------------------------------------------
# console tables
# ----------------------------------------------------------------------
def ledger_table(ledger: MetadataLedger, *, window: str = "measured") -> str:
    """Per protocol x message kind table of metadata bytes by component.

    This is the ``repro metrics summarize`` centerpiece: the rightmost
    column re-derives the collector's Table-II/III byte totals, the
    component columns show where those bytes come from.
    """
    grouped = ledger.by_protocol_kind(window)
    if not grouped:
        return f"(ledger {window} window is empty)"
    components = sorted({c for cell in grouped.values()
                         for c in cell.components})
    header = ["protocol", "kind", "msgs"] + components + ["total_bytes"]
    rows: list[list[str]] = []
    for (proto, kind), cell in grouped.items():
        row = [proto, kind, str(cell.count)]
        row.extend(str(cell.components.get(c, 0)) for c in components)
        row.append(str(cell.bytes))
        rows.append(row)
    totals = ["(all)", "", str(sum(c.count for c in grouped.values()))]
    for comp in components:
        totals.append(str(sum(c.components.get(comp, 0)
                              for c in grouped.values())))
    totals.append(str(sum(c.bytes for c in grouped.values())))
    rows.append(totals)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]

    def fmt_row(r: list[str]) -> str:
        return "  ".join(val.ljust(w) if i < 2 else val.rjust(w)
                         for i, (val, w) in enumerate(zip(r, widths)))

    sep = "  ".join("-" * w for w in widths)
    out = [fmt_row(header), sep]
    out.extend(fmt_row(r) for r in rows[:-1])
    out.append(sep)
    out.append(fmt_row(rows[-1]))
    return "\n".join(out)


# ----------------------------------------------------------------------
# heartbeat
# ----------------------------------------------------------------------
class HeartbeatReporter:
    """Periodic progress lines for a live run.

    Installed as ``Simulator.observer``; emits every ``every_ms``
    simulated milliseconds.  Lines carry simulated-time throughput,
    queue depth, app messages in flight, and the deepest per-site
    activation backlog — enough to see a stuck or lagging run at a
    glance.  Output goes to ``stream`` (default ``sys.stderr``), so
    stdout stays machine-readable.
    """

    def __init__(self, *, every_ms: float = 1000.0,
                 stream: Optional[IO[str]] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if every_ms <= 0:
            raise ValueError("every_ms must be positive")
        self.every_ms = every_ms
        self.stream = stream if stream is not None else sys.stderr
        self.registry = registry
        self.network = None  # bound by the runner when available
        self.protocols: Sequence = ()
        self._events = 0
        self._next_ms = every_ms
        self.beats = 0

    def bind(self, *, network=None, protocols=None) -> None:
        """Attach live data sources (called by the runner after wiring)."""
        if network is not None:
            self.network = network
        if protocols is not None:
            self.protocols = protocols

    # observer-compatible: called per event with (time, pending)
    def on_sim_event(self, ts: float, pending: int) -> None:
        self._events += 1
        if ts >= self._next_ms:
            self._emit(ts, pending)
            while self._next_ms <= ts:
                self._next_ms += self.every_ms

    def _emit(self, ts: float, pending: int) -> None:
        self.beats += 1
        rate = self._events / (ts / 1000.0) if ts > 0 else 0.0
        parts = [f"[heartbeat] t={ts:.0f}ms", f"events={self._events}",
                 f"ev/s={rate:.0f}", f"queue={pending}"]
        in_flight = None
        if self.network is not None:
            in_flight = self.network.app_messages_in_flight
            parts.append(f"in-flight={in_flight}")
        backlog = None
        if self.protocols:
            backlog = max(p.buffered_count for p in self.protocols)
            parts.append(f"max-site-backlog={backlog}")
        self.stream.write(" ".join(parts) + "\n")
        reg = self.registry
        if reg is not None:
            reg.set_gauge("heartbeat_events_per_sec", round(rate, 3),
                          "simulated-time event throughput at last beat")
            reg.set_gauge("heartbeat_queue_depth", pending,
                          "kernel queue depth at last beat")
            if in_flight is not None:
                reg.set_gauge("net_messages_in_flight", in_flight,
                              "application messages in flight at last beat")
            if backlog is not None:
                reg.set_gauge("proto_max_site_backlog", backlog,
                              "deepest per-site activation backlog at last beat")
