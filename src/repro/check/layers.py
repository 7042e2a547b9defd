"""Layer-contract enforcement over the project import graph.

Checks every import edge between project modules (and selected stdlib
imports) against the contract in ``layers.toml``:

* **LAY001** — an edge crosses layers outside the ``may_import``
  lattice and no ``[[ports]]`` entry covers it;
* **LAY002** — an edge covered by an *annotation-only* port is used at
  runtime: the import sits outside ``if TYPE_CHECKING:`` **and** at
  least one imported name is referenced outside annotations.  Such a
  port also narrows an edge the ``may_import`` lattice allows.  The
  check is sound under the repo-wide ``from __future__ import
  annotations`` convention, which makes annotation expressions never
  evaluate;
* **LAY003** — the contract does not assign a module to any layer (the
  architecture has a hole).

Typing-only edges still require a declared port when they cross layers
— the certificate enumerates *every* crossing, including the ones that
exist only for type annotations.
"""

from __future__ import annotations

from .callgraph import ImportEdge, ModuleInfo, ProjectGraph
from .contract import Contract, Layer
from .lint import Finding

__all__ = ["check_layers"]


def check_layers(graph: ProjectGraph, contract: Contract) -> list[Finding]:
    findings: list[Finding] = []
    for mod in graph.modules.values():
        findings.extend(
            f for f in _module_findings(contract, graph, mod)
            if not mod.suppressed(f.code, f.line)
        )
    return sorted(findings, key=Finding.sort_key)


def _module_findings(
    contract: Contract, graph: ProjectGraph, mod: ModuleInfo
) -> list[Finding]:
    layer = contract.layer_of(mod.name)
    if layer is None:
        return [_finding(
            mod, "LAY003", 1,
            f"module {mod.name} is not assigned to any layer in the "
            "contract",
            hint="add it (or a parent package) to a [layers.*] "
            "modules list in layers.toml",
        )]
    findings: list[Finding] = []
    for edge in mod.import_edges:
        if edge.imported is None:
            continue
        if edge.imported == contract.package or edge.imported.startswith(
            contract.package + "."
        ):
            findings.extend(
                _check_project_edge(contract, graph, mod, layer, edge)
            )
        else:
            findings.extend(_check_stdlib_edge(layer, mod, edge))
    return findings


# ----------------------------------------------------------------------
def _check_project_edge(
    contract: Contract,
    graph: ProjectGraph,
    mod: ModuleInfo,
    layer: Layer,
    edge: ImportEdge,
) -> list[Finding]:
    target_mod = _target_module(graph, edge.imported)
    target_layer = contract.layer_of(target_mod)
    if target_layer is None:
        # LAY003 is reported once at the target module itself
        return []
    if target_layer.name == layer.name:
        return []
    port = contract.port_for(mod.name, target_mod)
    if port is None:
        if "*" in layer.may_import or target_layer.name in layer.may_import:
            return []
        kind_note = " (typing-only)" if edge.typing_only else ""
        return [_finding(
            mod, "LAY001", edge.lineno,
            f"layer '{layer.name}' must not import layer "
            f"'{target_layer.name}': {mod.name} -> {edge.imported}"
            f"{kind_note}",
            hint="invert the dependency (inject the object) or declare "
            "a justified [[ports]] entry in layers.toml",
        )]
    if port.kind == "annotation-only" and not edge.typing_only:
        runtime_used = [
            name for name in edge.names if name in mod.runtime_names
        ]
        if runtime_used:
            name = runtime_used[0]
            line = mod.runtime_use_lines.get(name, edge.lineno)
            return [_finding(
                mod, "LAY002", line,
                f"import of {edge.imported} is declared annotation-only "
                f"but '{name}' is used at runtime",
                hint="move the import under `if TYPE_CHECKING:` and keep "
                "runtime access behind the injected port object",
            )]
    return []


def _check_stdlib_edge(
    layer: Layer, mod: ModuleInfo, edge: ImportEdge
) -> list[Finding]:
    if edge.typing_only or not layer.forbidden_stdlib:
        return []
    top = edge.imported.split(".")[0]
    if top not in layer.forbidden_stdlib:
        return []
    return [_finding(
        mod, "LAY001", edge.lineno,
        f"layer '{layer.name}' must not import stdlib module '{top}' "
        f"at runtime ({mod.name})",
        hint="inject the capability (clock/RNG/IO port) instead of "
        "importing the ambient module",
    )]


def _target_module(graph: ProjectGraph, imported: str) -> str:
    """The *module* part of an imported dotted path.

    ``from repro.sim.faults import FaultPlan`` records the base module
    directly; ``import repro.sim.faults`` does too — but guard against
    symbol-level paths by trimming to the longest known module prefix.
    """
    if imported in graph.modules:
        return imported
    parts = imported.split(".")
    while parts:
        cand = ".".join(parts)
        if cand in graph.modules:
            return cand
        parts.pop()
    return imported


def _finding(
    mod: ModuleInfo,
    code: str,
    line: int,
    message: str,
    *,
    hint: str = "",
) -> Finding:
    return Finding(
        code=code,
        path=mod.display_path,
        line=line,
        col=0,
        message=message,
        hint=hint,
    )
