"""Whole-program effect inference: certify the protocol cores pure.

Every function in the project gets a set of *effects* — observable
interactions with the world outside its arguments:

``WALL_CLOCK``
    reads real time (``time.time``, ``datetime.now``, ...) — poison for
    bit-deterministic replay;
``UNSEEDED_RNG``
    draws randomness not derived from an injected seed
    (``random.random``, ``numpy.random.default_rng()`` with no seed,
    ``os.urandom``, ``uuid.uuid4``, ``secrets``);
``FILE_IO``
    touches the filesystem (``open``, ``Path.write_text``,
    ``shutil``/``tempfile``, destructive ``os.*``);
``NETWORK``
    real sockets / HTTP — the simulation must stay in-process;
``SIM_INTERNAL``
    references simulator machinery (``repro.sim.*``) at runtime from
    outside the sim layer — the core protocols must not know the
    substrate that hosts them.

Leaf effects are detected directly at call/name sites, then propagated
up the reverse call graph to a fixpoint: a caller inherits every effect
of every statically-resolved callee, with a witness chain explaining
*why* (``a calls b calls c which calls time.time at line N``).

The analysis is deliberately conservative in one direction only: the
call graph under-approximates dynamic dispatch, so injected ports
(``self.ctx.network.send``) contribute nothing — which is the whole
point.  A function certified effect-free here is a pure function of its
arguments plus whatever the harness injects.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .callgraph import FunctionInfo, ModuleInfo, ProjectGraph
from .contract import Contract
from .lint import Finding

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "EffectReport",
    "analyze_effects",
    "diff_against_baseline",
    "load_baseline",
    "render_baseline",
]

BASELINE_SCHEMA_VERSION = 1

# -- leaf effect tables -------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
    "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    # asyncio's clock surface: loop.time() reads the wall clock and
    # loop.call_later/call_at arm real-time timers; asyncio.sleep awaits
    # real time.  The bare "loop." spellings catch the common local
    # variable idiom (`loop = asyncio.get_event_loop(); loop.time()`);
    # attribute receivers (`self._loop.time()`) resolve through
    # _WALL_CLOCK_METHODS below.
    "asyncio.sleep", "loop.time", "loop.call_later", "loop.call_at",
})
#: receiver-agnostic method names that always mean real-time scheduling
_WALL_CLOCK_METHODS = frozenset({"call_later", "call_at"})
#: ``<receiver>.time()`` is a wall-clock read when the receiver is an
#: event loop; matched by the receiver attribute's tail (``loop``,
#: ``_loop``, ``event_loop``...) so instance attributes resolve too
_LOOP_RECEIVER_SUFFIX = "loop"

_UNSEEDED_EXACT = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
})
#: module-function trees drawing from process-global RNG state
_UNSEEDED_PREFIXES = ("random.", "numpy.random.", "np.random.", "secrets.")
#: constructors that are *seeded* uses when given a seed argument and
#: unseeded uses when called bare
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
})

_FILE_IO_EXACT = frozenset({
    "open", "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.makedirs", "os.mkdir", "os.rmdir", "os.removedirs", "os.listdir",
    "os.scandir", "os.stat", "os.open", "os.read", "os.write",
    "os.fsync", "os.truncate",
})
_FILE_IO_PREFIXES = ("shutil.", "tempfile.")
#: receiver-agnostic method names that always mean filesystem access
_FILE_IO_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

_NETWORK_PREFIXES = (
    "socket.", "http.client.", "urllib.request.", "requests.",
    "ssl.", "asyncio.open_connection", "asyncio.start_server",
)
#: receiver-agnostic method names that always open a socket (the event
#: loop's own dial / listen calls, whatever the loop is bound to)
_NETWORK_METHODS = frozenset({"create_connection", "create_server"})


@dataclass(frozen=True)
class Witness:
    """Why a function has an effect: a leaf fact or a call edge."""

    kind: str  # "leaf" | "call"
    detail: str  # leaf description, or callee qual
    line: int


@dataclass
class EffectReport:
    """The inferred effect table plus provenance for every fact."""

    graph: ProjectGraph
    #: qual -> effect set
    effects: dict[str, set[str]]
    #: (qual, effect) -> first witness found
    witnesses: dict[tuple[str, str], Witness]

    # ------------------------------------------------------------------
    def chain(self, qual: str, effect: str, *, limit: int = 6) -> list[str]:
        """Human-readable witness chain, leaf last."""
        out: list[str] = []
        seen: set[str] = set()
        cur = qual
        while cur not in seen and len(out) < limit:
            seen.add(cur)
            wit = self.witnesses.get((cur, effect))
            if wit is None:
                break
            if wit.kind == "leaf":
                out.append(f"{cur}:{wit.line} {wit.detail}")
                break
            out.append(f"{cur}:{wit.line} calls {wit.detail}")
            cur = wit.detail
        return out

    def nonempty(self) -> dict[str, set[str]]:
        return {q: e for q, e in self.effects.items() if e}

    def findings(self, contract: Contract) -> list[Finding]:
        """EFF001 for every effect an ``[[effects.forbid]]`` rule bans
        where it was reached."""
        out: list[Finding] = []
        for qual in sorted(self.effects):
            fn = self.graph.functions[qual]
            mod = self.graph.modules[fn.module]
            for effect in sorted(self.effects[qual]):
                tree = contract.forbidding(qual, effect)
                if tree is None or mod.suppressed("EFF001", fn.lineno):
                    continue
                chain = self.chain(qual, effect)
                out.append(Finding(
                    code="EFF001",
                    path=mod.display_path,
                    line=fn.lineno,
                    col=0,
                    message=(
                        f"{qual} transitively reaches {effect}, which the "
                        f"contract forbids in {tree}: "
                        + " <- ".join(reversed(chain))
                    ),
                    hint=(
                        "inject the dependency through a port argument, "
                        "or add a justified [[effects.allow]] entry to "
                        "the contract"
                    ),
                ))
        return out


# ----------------------------------------------------------------------
def analyze_effects(
    graph: ProjectGraph, contract: Contract
) -> EffectReport:
    """Leaf detection + fixpoint propagation over the reverse call graph."""
    report = EffectReport(graph=graph, effects={}, witnesses={})
    for fn in graph.functions.values():
        effs: set[str] = set()
        mod = graph.modules[fn.module]
        for effect, detail, line in _leaf_effects(graph, mod, fn, contract):
            effs.add(effect)
            report.witnesses.setdefault(
                (fn.qual, effect), Witness("leaf", detail, line)
            )
        report.effects[fn.qual] = effs

    # fixpoint: callers inherit callee effects
    callers = graph.callers_of()
    work = [q for q, e in report.effects.items() if e]
    while work:
        callee = work.pop()
        callee_effects = report.effects[callee]
        for caller in callers.get(callee, ()):
            fn = graph.functions[caller]
            missing = callee_effects - report.effects[caller]
            if not missing:
                continue
            line = _call_line(graph, fn, callee)
            for effect in missing:
                report.effects[caller].add(effect)
                report.witnesses.setdefault(
                    (caller, effect), Witness("call", callee, line)
                )
            work.append(caller)
    return report


def _call_line(graph: ProjectGraph, fn: FunctionInfo, callee: str) -> int:
    """Line of the first call site of ``callee`` (for witness chains)."""
    return fn.callee_lines.get(callee, fn.lineno)


def _leaf_effects(
    graph: ProjectGraph,
    mod: ModuleInfo,
    fn: FunctionInfo,
    contract: Contract,
) -> Iterator[tuple[str, str, int]]:
    """(effect, detail, line) facts detected directly in ``fn``."""
    in_sim = _has_prefix(fn.module, f"{contract.package}.sim")
    sim_prefix = f"{contract.package}.sim."
    for node in graph.own_nodes(fn):
        if id(node) in mod.non_runtime_nodes:
            continue
        if isinstance(node, ast.Call):
            target = mod.call_target(node)
            if target is not None:
                effect = _classify_call(target, node)
                if effect is not None:
                    yield effect, f"calls {target}", node.lineno
            meth = _method_name(node)
            if meth in _FILE_IO_METHODS:
                yield "FILE_IO", f"calls .{meth}()", node.lineno
            elif meth in _WALL_CLOCK_METHODS:
                yield "WALL_CLOCK", f"calls .{meth}()", node.lineno
            elif meth in _NETWORK_METHODS:
                yield "NETWORK", f"calls .{meth}()", node.lineno
            elif meth == "time" and _receiver_tail(node).endswith(
                _LOOP_RECEIVER_SUFFIX
            ):
                yield (
                    "WALL_CLOCK",
                    "calls .time() on an event loop",
                    node.lineno,
                )
        elif (
            not in_sim
            and isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
        ):
            target = mod.import_map.get(node.id)
            if target is not None and target.startswith(sim_prefix):
                yield (
                    "SIM_INTERNAL",
                    f"references {target} at runtime",
                    node.lineno,
                )


def _classify_call(target: str, node: ast.Call) -> Optional[str]:
    if target in _WALL_CLOCK:
        return "WALL_CLOCK"
    if target in _RNG_CONSTRUCTORS:
        # seeded constructions are the sanctioned idiom; a bare call
        # falls back to entropy from the OS
        if node.args or any(
            kw.arg in ("seed", "x") for kw in node.keywords
        ):
            return None
        return "UNSEEDED_RNG"
    if target in _UNSEEDED_EXACT or target.startswith(_UNSEEDED_PREFIXES):
        return "UNSEEDED_RNG"
    if target in _FILE_IO_EXACT or target.startswith(_FILE_IO_PREFIXES):
        return "FILE_IO"
    if target.startswith(_NETWORK_PREFIXES):
        return "NETWORK"
    return None


def _method_name(node: ast.Call) -> Optional[str]:
    return node.func.attr if isinstance(node.func, ast.Attribute) else None


def _receiver_tail(node: ast.Call) -> str:
    """The attribute/name immediately below a method call's receiver:
    ``self._loop.time()`` -> ``_loop``, ``loop.time()`` -> ``loop``."""
    if not isinstance(node.func, ast.Attribute):
        return ""
    recv = node.func.value
    if isinstance(recv, ast.Attribute):
        return recv.attr
    if isinstance(recv, ast.Name):
        return recv.id
    return ""


def _has_prefix(dotted: str, prefix: str) -> bool:
    return dotted == prefix or dotted.startswith(prefix + ".")


# -- baseline ----------------------------------------------------------
def render_baseline(report: EffectReport, package: str) -> str:
    """The committed certificate: every effectful function and why."""
    doc = {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "package": package,
        "effects": {
            qual: sorted(effs)
            for qual, effs in sorted(report.nonempty().items())
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def load_baseline(path: Path) -> Optional[dict[str, set[str]]]:
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {q: set(e) for q, e in doc.get("effects", {}).items()}


def diff_against_baseline(
    report: EffectReport, baseline: dict[str, set[str]]
) -> list[Finding]:
    """EFF002 for every effect not recorded in the baseline.

    Only *additions* fail — code getting purer never blocks a merge;
    ``--write-baseline`` refreshes the certificate either way.
    """
    out: list[Finding] = []
    for qual, effs in sorted(report.nonempty().items()):
        new = effs - baseline.get(qual, set())
        if not new:
            continue
        fn = report.graph.functions[qual]
        chains = [
            " <- ".join(reversed(report.chain(qual, e))) for e in sorted(new)
        ]
        out.append(Finding(
            code="EFF002",
            path=report.graph.modules[fn.module].display_path,
            line=fn.lineno,
            col=0,
            message=(
                f"{qual} gained effect(s) not in the baseline: "
                f"{', '.join(sorted(new))} ({'; '.join(chains)})"
            ),
            hint=(
                "review the new effect; if intentional run "
                "`repro check --effects --write-baseline` and commit"
            ),
        ))
    return out
