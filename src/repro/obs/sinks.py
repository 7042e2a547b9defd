"""Trace sinks: JSONL files and Chrome ``trace_event`` JSON.

Three ways to consume a trace:

* **in-memory** — a live :class:`~repro.obs.tracer.Tracer` (or the
  :class:`~repro.obs.tracer.Trace` from ``to_trace()``) is itself the
  in-memory sink; the analysis helpers operate on it directly;
* **JSONL** — :func:`write_jsonl` / :func:`load_trace` round-trip the
  full structured trace (meta line, then one event per line).  Output
  is byte-deterministic: same seed, same file;
* **Chrome trace_event JSON** — :func:`write_chrome` emits the subset
  Perfetto / ``chrome://tracing`` renders: one track (tid) per site,
  operation and buffered-update slices, message-flow arrows from sender
  to receiver, instants for drops and retransmits, and an ``in_flight``
  counter track computed from the send and deliver events.

Format reference: the Trace Event Format is stable and documented by
the Chromium project; timestamps are microseconds, so simulated
milliseconds are scaled by 1000.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..metrics.stats import RunningStat
from .tracer import Trace, TraceEvent, Tracer

__all__ = ["write_jsonl", "load_trace", "to_chrome", "write_chrome"]

#: version 2 dropped version 1's trailer row of bucketed series
TRACE_FORMAT_VERSION = 2

#: width of one ``in_flight`` counter point in the Chrome export
IN_FLIGHT_BUCKET_MS = 100.0

_TraceLike = Union[Tracer, Trace]


def _as_trace(trace: _TraceLike) -> Trace:
    return trace.to_trace() if isinstance(trace, Tracer) else trace


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(trace: _TraceLike, path: Union[str, Path]) -> Path:
    """Write the full structured trace to ``path`` (deterministic bytes)."""
    trace = _as_trace(trace)
    path = Path(path)
    with path.open("w") as fh:
        meta = {"type": "meta", "version": TRACE_FORMAT_VERSION}
        meta.update(trace.meta)
        fh.write(_dumps(meta) + "\n")
        for ev in trace.events:
            row = {"type": "event"}
            row.update(ev.to_json())
            fh.write(_dumps(row) + "\n")
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace written by :func:`write_jsonl` (format 1 or 2)."""
    meta: dict = {}
    events: list[TraceEvent] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            kind = row.pop("type", "event")
            if kind == "meta":
                row.pop("version", None)
                meta = row
            elif kind == "event":
                events.append(TraceEvent.from_json(row))
            # any other row (version 1's bucketed-series trailer) is skipped
    return Trace(meta=meta, events=events)


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def _us(ts_ms: float) -> float:
    return round(ts_ms * 1000.0, 3)


def _sites_of(trace: Trace) -> list[int]:
    """Every initial site, plus every site with an event (a joiner)."""
    sites = {ev.site for ev in trace.events}
    sites.update(range(int(trace.meta.get("n_sites") or 0)))
    return sorted(sites)


def _in_flight_points(trace: Trace) -> list[tuple[float, float]]:
    """(bucket start, mean) of the traced messages in flight.

    In event order, each ``msg.send`` adds one and the first
    ``msg.deliver`` of a send takes one away; every new value is a
    sample of the :data:`IN_FLIGHT_BUCKET_MS` bucket it falls in.
    """
    in_flight = 0
    delivered: set[Optional[int]] = set()
    buckets: dict[int, RunningStat] = {}
    for ev in trace.events:
        if ev.kind == "msg.send":
            in_flight += 1
        elif ev.kind == "msg.deliver" and ev.parent not in delivered:
            delivered.add(ev.parent)
            in_flight -= 1
        else:
            continue
        idx = int(ev.ts // IN_FLIGHT_BUCKET_MS)
        stat = buckets.get(idx)
        if stat is None:
            stat = buckets[idx] = RunningStat()
        stat.add(in_flight)
    return [(idx * IN_FLIGHT_BUCKET_MS, buckets[idx].mean)
            for idx in sorted(buckets)]


def _name_of_write(attrs: dict) -> str:
    if "writer" in attrs:
        return f"w{attrs['writer']}.{attrs['clock']}(x{attrs.get('var', '?')})"
    return f"x{attrs.get('var', '?')}"


def to_chrome(trace: _TraceLike) -> dict:
    """Build a Chrome trace_event JSON object (one track per site)."""
    trace = _as_trace(trace)
    out: list[dict] = []
    pid = 0
    proto = trace.meta.get("protocol", "simulation")
    out.append({"ph": "M", "pid": pid, "name": "process_name",
                "args": {"name": f"repro {proto}"}})
    for site in _sites_of(trace):
        out.append({"ph": "M", "pid": pid, "tid": site, "name": "thread_name",
                    "args": {"name": f"site {site}"}})
        out.append({"ph": "M", "pid": pid, "tid": site, "name": "thread_sort_index",
                    "args": {"sort_index": site}})

    for ev in trace.events:
        a = ev.attrs
        if ev.kind in ("op.write", "op.read"):
            end = a.get("end_ts", ev.ts)
            name = ("write" if ev.kind == "op.write" else
                    "remote read" if a.get("remote") else "read")
            out.append({
                "ph": "X", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                "dur": max(_us(end) - _us(ev.ts), 1.0),
                "name": f"{name} x{a.get('var', '?')}",
                "cat": "op", "args": {"index": a.get("index")},
            })
        elif ev.kind == "msg.send":
            out.append({
                "ph": "X", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                "dur": 1.0, "name": f"send {a.get('msg', '?')}→{a.get('dst')}",
                "cat": "net", "args": {"size": a.get("size")},
            })
            out.append({"ph": "s", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                        "id": ev.id, "name": a.get("msg", "msg"), "cat": "net"})
        elif ev.kind == "msg.deliver":
            out.append({
                "ph": "X", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                "dur": 1.0, "name": f"recv←{a.get('src')}",
                "cat": "net", "args": {"latency_ms": a.get("latency_ms")},
            })
            if ev.parent is not None:
                out.append({"ph": "f", "bp": "e", "pid": pid, "tid": ev.site,
                            "ts": _us(ev.ts), "id": ev.parent,
                            "name": "msg", "cat": "net"})
        elif ev.kind == "sm.activate":
            waited = a.get("waited_ms", 0.0)
            if waited > 0:
                out.append({
                    "ph": "X", "pid": pid, "tid": ev.site,
                    "ts": _us(a["arrived"]),
                    "dur": max(_us(ev.ts) - _us(a["arrived"]), 1.0),
                    "name": f"buffered {_name_of_write(a)}", "cat": "causal",
                    "args": {"waited_ms": waited,
                             "waited_on": a.get("waited_on", [])},
                })
            out.append({
                "ph": "i", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                "s": "t", "name": f"apply {_name_of_write(a)}", "cat": "causal",
                "args": {"visibility_ms": a.get("visibility_ms")},
            })
        elif ev.kind == "msg.retransmit":
            out.append({"ph": "i", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                        "s": "t", "name": "retransmit", "cat": "chaos"})
        elif ev.kind == "msg.attempt" and a.get("outcome") == "dropped":
            out.append({"ph": "i", "pid": pid, "tid": ev.site, "ts": _us(ev.ts),
                        "s": "t",
                        "name": ("partition drop" if a.get("partition")
                                 else "drop"),
                        "cat": "chaos"})

    # counter track: in-flight messages over time
    for t, mean in _in_flight_points(trace):
        out.append({"ph": "C", "pid": pid, "tid": 0, "ts": _us(t),
                    "name": "in_flight", "args": {"messages": mean}})

    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": dict(trace.meta)}


def write_chrome(trace: _TraceLike, path: Union[str, Path]) -> Path:
    """Write the Perfetto-loadable Chrome trace JSON to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome(trace), sort_keys=True))
    return path
