"""Per-layer attribution of a ``cProfile`` run.

``tottime`` (self time by construction) is bucketed by module path into
layers that carry this repo's module names.  A C builtin has no module
path of its own, so its time goes to the layer of the Python function
that called it, except for the builtins that *are* a layer (the ``_json``
accelerator, sockets, ``select`` and ``_asyncio``).
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import pstats
import selectors
import socket
from pathlib import Path

import repro

_BENCH = str(Path(__file__).resolve().parent) + "/"
_REPRO = str(Path(repro.__file__).resolve().parent) + "/"

#: the protocols' own modules all report as ``core.protocol``
_PROTOCOL_MODULES = ("opt_track", "opt_track_crp", "full_track", "optp",
                     "hb_track")

#: path prefix -> layer, first match wins
_BY_PATH: tuple[tuple[str, str], ...] = (
    (_REPRO + "workload/", "workload"),
    (_REPRO + "sim/engine.py", "sim.engine"),
    (_REPRO + "sim/network.py", "sim.network"),
    (_REPRO + "sim/reliable.py", "sim.reliable"),
    (_REPRO + "sim/faults.py", "sim.faults"),
    (_REPRO + "sim/process.py", "sim.process"),
    # EventRecord rows are built by the history recorder
    (_REPRO + "sim/events.py", "verify"),
    (_REPRO + "core/base.py", "core.base"),
    (_REPRO + "core/log.py", "core.log"),
    (_REPRO + "core/clocks.py", "core.clocks"),
    (_REPRO + "core/activation.py", "core.activation"),
    (_REPRO + "core/messages.py", "core.messages"),
    (_REPRO + "core/netpolicy.py", "core.netpolicy"),
    *((f"{_REPRO}core/{m}.py", "core.protocol") for m in _PROTOCOL_MODULES),
    (_REPRO + "memory/", "memory"),
    (_REPRO + "metrics/collector.py", "metrics.collector"),
    (_REPRO + "metrics/stats.py", "metrics.collector"),
    (_REPRO + "metrics/sizing.py", "metrics.sizing"),
    (_REPRO + "verify/", "verify"),
    (_REPRO + "service/api.py", "service.api"),
    (_REPRO + "service/node.py", "service.node"),
    (_REPRO + "service/codec.py", "service.codec"),
    (_REPRO + "service/channel.py", "service.channel"),
    (_REPRO + "service/runtime.py", "service.runtime"),
    (_REPRO + "service/history.py", "service.history"),
    (str(Path(json.__file__).parent) + "/", "stdlib.json"),
    (str(Path(asyncio.__file__).parent) + "/", "stdlib.asyncio"),
    (selectors.__file__, "stdlib.asyncio"),
    (socket.__file__, "stdlib.asyncio"),
    (_BENCH, "bench.client"),
)

#: builtin-name fragment -> layer
_BY_BUILTIN: tuple[tuple[str, str], ...] = (
    ("_json.", "stdlib.json"),
    ("_socket.", "stdlib.asyncio"),
    ("select.", "stdlib.asyncio"),
    ("_asyncio.", "stdlib.asyncio"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in _BY_PATH] + ["other"]
))


def _layer_of(func: tuple[str, int, str]) -> str | None:
    """Layer of one pstats function key; ``None`` for a plain builtin."""
    filename, _, name = func
    if filename == "~":
        for fragment, layer in _BY_BUILTIN:
            if fragment in name:
                return layer
        return None
    for prefix, layer in _BY_PATH:
        if filename.startswith(prefix):
            return layer
    return "other"


def attribute(profile: cProfile.Profile) -> tuple[dict[str, float],
                                                  dict[str, int]]:
    """Self seconds per layer, and call counts per ``layer:function``."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for func, (_, n_calls, tottime, _, callers) in stats.items():
        layer = _layer_of(func)
        if layer is not None:
            self_s[layer] += tottime
            key = f"{layer}:{func[2]}"
            calls[key] = calls.get(key, 0) + n_calls
            continue
        if not callers:
            self_s["other"] += tottime
        for caller, (_, _, caller_tottime, _) in callers.items():
            self_s[_layer_of(caller) or "other"] += caller_tottime
    return self_s, calls
