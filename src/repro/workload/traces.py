"""Trace export and replay.

Two kinds of artifacts can be round-tripped as JSON:

* **workloads** — the pre-planned operation schedules, so a run can be
  reproduced exactly on another machine (or fed to a different protocol,
  Table IV-style) without sharing RNG internals;
* **histories** — the recorded event trace of a run, so causal
  consistency can be re-checked offline and failures can be archived as
  regression fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..verify.history import HistoryRecorder, decode_events, encode_events
from .schedule import Operation, OpKind, SiteSchedule, Workload

__all__ = [
    "workload_to_dict",
    "workload_from_dict",
    "save_workload",
    "load_workload",
    "save_history",
    "load_history",
]

PathLike = Union[str, Path]


def workload_to_dict(workload: Workload) -> dict:
    """JSON-ready representation of a workload."""
    return {
        "n_vars": workload.n_vars,
        "target_write_rate": workload.target_write_rate,
        "seed": workload.seed,
        "schedules": [
            {
                "site": sched.site,
                "items": [
                    [t, op.kind.value, op.var, op.value] for t, op in sched.items
                ],
            }
            for sched in workload.schedules
        ],
    }


def workload_from_dict(data: dict) -> Workload:
    """Inverse of :func:`workload_to_dict`."""
    schedules = []
    for sched in data["schedules"]:
        items = []
        for t, kind, var, value in sched["items"]:
            op = Operation(OpKind(kind), int(var),
                           int(value) if value is not None else None)
            items.append((float(t), op))
        schedules.append(SiteSchedule(site=int(sched["site"]), items=tuple(items)))
    return Workload(
        schedules=tuple(schedules),
        n_vars=int(data["n_vars"]),
        target_write_rate=float(data.get("target_write_rate", 0.0)),
        seed=data.get("seed"),
    )


def save_workload(workload: Workload, path: PathLike) -> None:
    Path(path).write_text(json.dumps(workload_to_dict(workload)))


def load_workload(path: PathLike) -> Workload:
    return workload_from_dict(json.loads(Path(path).read_text()))


def save_history(history: HistoryRecorder, path: PathLike) -> None:
    """Write a recorded history as JSON lines (one event per line)."""
    Path(path).write_text(encode_events(history.events))


def load_history(path: PathLike) -> HistoryRecorder:
    """Read a history previously written by :func:`save_history`."""
    rec = HistoryRecorder()
    rec.extend(decode_events(Path(path).read_text()))
    return rec
