"""Project-wide import graph and call graph over a python package tree.

This is the one front end of ``repro.check``: the AST lints
(:mod:`repro.check.lint`), the effect analyzer
(:mod:`repro.check.effects`) and the layer checker
(:mod:`repro.check.layers`) all read it.  It parses every module under
a source root once and extracts:

* **modules** — dotted name, path, display path, AST, suppression
  comments, and a per-module import table mapping local aliases to
  fully-qualified targets (relative imports resolved against the
  module's package);
* **front-end findings** — ``SIM999`` for a module that does not parse
  and ``SIM000`` for a suppression without a reason or naming an
  unknown code, reported whichever passes run;
* **import edges** — (importer, imported module) pairs with line
  numbers, split into *runtime* and *typing-only* (``if TYPE_CHECKING:``
  blocks), plus per-symbol runtime-use tracking so the layer checker
  can verify an import is genuinely annotation-only;
* **functions** — every ``def``/``async def`` plus a synthetic
  ``<module>`` function per file for top-level code, keyed by qualified
  name (``repro.core.base.CausalProtocol._send``);
* **call edges** — best-effort static resolution of calls: direct
  names, imported names, ``module.attr`` through import aliases,
  ``self.method`` through the enclosing class and its statically
  resolvable project base classes, and class instantiations (resolved
  to ``__init__``).

The resolution is deliberately an *under*-approximation of dynamic
dispatch (unresolvable attribute calls like ``self.ctx.network.send``
produce no edge): injected ports are opaque at their call sites, which
is exactly what makes the protocol cores analyzable as pure functions
of their inputs.  The effect analyzer compensates with leaf-effect
facts detected directly at call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .lint import Finding
from ._util import (
    SUPPRESSION_CODE,
    Suppression,
    dotted_name,
    is_excluded_path,
    is_generated_source,
    parse_suppressions,
)

__all__ = [
    "FunctionInfo",
    "ImportEdge",
    "ModuleInfo",
    "ProjectGraph",
    "MODULE_FN",
]

#: name of the synthetic per-module function holding top-level code
MODULE_FN = "<module>"


@dataclass
class FunctionInfo:
    """One function (or the synthetic module body) in the project."""

    qual: str
    module: str
    name: str
    node: ast.AST
    lineno: int
    class_name: Optional[str] = None
    #: qualified names of statically resolved callees
    callees: set[str] = field(default_factory=set)
    #: callee qual -> first call-site line (witness chains)
    callee_lines: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ImportEdge:
    """One ``import``/``from-import`` of a project module."""

    importer: str
    imported: str
    lineno: int
    #: local names bound by this import (aliases or symbol names)
    names: tuple[str, ...]
    #: True when the import sits under ``if TYPE_CHECKING:``
    typing_only: bool


@dataclass
class ModuleInfo:
    """One parsed module and its local symbol/import tables."""

    name: str
    path: Path
    tree: ast.Module
    #: the path findings name: relative to the working directory when
    #: the module lies under it
    display_path: str = ""
    is_package: bool = False
    #: every ``# simcheck: ignore[...]`` comment, parsed once
    suppressions: list[Suppression] = field(default_factory=list)
    #: ids of nodes inside annotations / TYPE_CHECKING blocks — these
    #: never evaluate at runtime under `from __future__ import annotations`
    non_runtime_nodes: set[int] = field(default_factory=set)
    #: local alias -> fully qualified target ("repro.sim.engine",
    #: "repro.sim.engine.Simulator", "time", "numpy.random", ...)
    import_map: dict[str, str] = field(default_factory=dict)
    import_edges: list[ImportEdge] = field(default_factory=list)
    #: local function name -> qual (module-level defs only)
    functions: dict[str, str] = field(default_factory=dict)
    #: local class name -> {method name -> qual} and base-name list
    classes: dict[str, "ClassInfo"] = field(default_factory=dict)
    #: local names used outside annotations / TYPE_CHECKING blocks
    runtime_names: set[str] = field(default_factory=set)
    #: lineno of the first runtime use per local name (diagnostics)
    runtime_use_lines: dict[str, int] = field(default_factory=dict)

    def suppressed(self, code: str, line: int) -> bool:
        """True when a suppression on ``line`` or the line above names
        ``code``.  One without a reason silences too; the graph reports
        it as SIM000."""
        return any(
            sup.line in (line, line - 1) and code in sup.codes
            for sup in self.suppressions
        )

    def call_target(self, node: ast.Call) -> Optional[str]:
        """Dotted callee name with its head resolved through the imports.

        ``perf_counter()`` after ``from time import perf_counter`` and
        ``hq.heappush()`` after ``import heapq as hq`` become
        ``time.perf_counter`` and ``heapq.heappush``; an unresolvable
        head is returned verbatim so builtins like ``open`` still match.
        """
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        return self.import_map.get(head, head) + dot + rest


@dataclass
class ClassInfo:
    name: str
    module: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)


class ProjectGraph:
    """Modules, imports, functions, and resolved call edges of one tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: SIM999 / SIM000 findings of the parse itself
        self.findings: list[Finding] = []
        #: "module.Class" -> ClassInfo for cross-module base resolution
        self._classes: dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, src_root: Path, package: str) -> "ProjectGraph":
        """Parse ``src_root/package`` and resolve the call graph."""
        graph = cls()
        pkg_dir = src_root / package.replace(".", "/")
        known_codes = _registered_codes()
        for path in sorted(pkg_dir.rglob("*.py")):
            if is_excluded_path(path.relative_to(pkg_dir).parts):
                continue
            text = path.read_text(encoding="utf-8")
            if is_generated_source(text):
                continue
            display = _display_path(path)
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                graph.findings.append(Finding(
                    code="SIM999", path=display, line=exc.lineno or 0,
                    col=exc.offset or 0, message=f"syntax error: {exc.msg}",
                ))
                continue
            name = _module_name(path, src_root)
            mod = graph.modules[name] = ModuleInfo(
                name=name, path=path, tree=tree, display_path=display,
                is_package=path.name == "__init__.py",
                suppressions=list(parse_suppressions(text.splitlines())),
            )
            graph.findings.extend(_invalid_suppressions(mod, known_codes))
        for mod in graph.modules.values():
            graph._collect_module(mod)
        for mod in graph.modules.values():
            graph._resolve_calls(mod)
        return graph

    # ------------------------------------------------------------------
    def function(self, qual: str) -> Optional[FunctionInfo]:
        return self.functions.get(qual)

    def callers_of(self) -> dict[str, set[str]]:
        """Reverse call graph: callee qual -> caller quals."""
        rev: dict[str, set[str]] = {}
        for fn in self.functions.values():
            for callee in fn.callees:
                rev.setdefault(callee, set()).add(fn.qual)
        return rev

    # -- collection ----------------------------------------------------
    def _collect_module(self, mod: ModuleInfo) -> None:
        typing_only_nodes = _type_checking_blocks(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._collect_import(
                    mod, node, typing_only=id(node) in typing_only_nodes
                )
        # module-level functions and classes
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod.name}.{stmt.name}"
                mod.functions[stmt.name] = qual
                self.functions[qual] = FunctionInfo(
                    qual=qual, module=mod.name, name=stmt.name,
                    node=stmt, lineno=stmt.lineno,
                )
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(mod, stmt)
        # synthetic module body (top-level statements incl. lambdas)
        qual = f"{mod.name}.{MODULE_FN}"
        self.functions[qual] = FunctionInfo(
            qual=qual, module=mod.name, name=MODULE_FN,
            node=mod.tree, lineno=1,
        )
        # runtime name usage (outside annotations and TYPE_CHECKING)
        annotation_nodes = _annotation_nodes(mod.tree)
        skip = typing_only_nodes | annotation_nodes
        mod.non_runtime_nodes = skip
        for node in ast.walk(mod.tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Load, ast.Del)
            ):
                mod.runtime_names.add(node.id)
                mod.runtime_use_lines.setdefault(node.id, node.lineno)

    def _collect_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        bases = tuple(
            b for b in map(dotted_name, node.bases) if b is not None
        )
        info = ClassInfo(name=node.name, module=mod.name, bases=bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod.name}.{node.name}.{stmt.name}"
                info.methods[stmt.name] = qual
                self.functions[qual] = FunctionInfo(
                    qual=qual, module=mod.name, name=stmt.name,
                    node=stmt, lineno=stmt.lineno, class_name=node.name,
                )
        mod.classes[node.name] = info
        self._classes[f"{mod.name}.{node.name}"] = info

    def _collect_import(
        self, mod: ModuleInfo, node: ast.AST, *, typing_only: bool
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds c -> a.b
                local = alias.asname or alias.name.split(".")[0]
                mod.import_map[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                mod.import_edges.append(ImportEdge(
                    importer=mod.name, imported=alias.name,
                    lineno=node.lineno, names=(local,),
                    typing_only=typing_only,
                ))
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(mod.name, mod.is_package, node)
            if base is None:
                return
            names = []
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.import_map[local] = f"{base}.{alias.name}"
                names.append(local)
            mod.import_edges.append(ImportEdge(
                importer=mod.name, imported=base,
                lineno=node.lineno, names=tuple(names),
                typing_only=typing_only,
            ))

    # -- call resolution -----------------------------------------------
    def _resolve_calls(self, mod: ModuleInfo) -> None:
        for fn in list(self.functions.values()):
            if fn.module != mod.name:
                continue
            owner = mod.classes.get(fn.class_name) if fn.class_name else None
            for node in self.own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                target = self._resolve_call(mod, owner, node)
                if target is not None:
                    fn.callees.add(target)
                    fn.callee_lines.setdefault(target, node.lineno)

    def own_nodes(self, fn: FunctionInfo) -> Iterator[ast.AST]:
        """Nodes belonging to ``fn`` itself.

        For a def: its whole body (nested defs excluded — they are their
        own FunctionInfo only at module/class level, so nested closures
        intentionally stay attributed to their enclosing function).  For
        the synthetic module body: top-level statements minus any
        def/class bodies.
        """
        if fn.name == MODULE_FN:
            assert isinstance(fn.node, ast.Module)
            for stmt in fn.node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    # class bodies: default expressions run at import
                    # time but method bodies do not
                    if isinstance(stmt, ast.ClassDef):
                        for sub in stmt.body:
                            if not isinstance(
                                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                            ):
                                yield from ast.walk(sub)
                    continue
                yield from ast.walk(stmt)
        else:
            skip: set[int] = set()
            for node in ast.walk(fn.node):
                if id(node) in skip:
                    continue
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and node is not fn.node:
                    for sub in ast.walk(node):
                        skip.add(id(sub))
                    continue
                yield node

    def _resolve_call(
        self,
        mod: ModuleInfo,
        owner: Optional[ClassInfo],
        call: ast.Call,
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(mod, func.id)
        if isinstance(func, ast.Attribute):
            # self.method() / cls.method(): enclosing class + bases
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and owner is not None
            ):
                return self._resolve_method(mod, owner, func.attr)
            dotted = dotted_name(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target = mod.import_map.get(head)
                if target is not None and rest:
                    return self._resolve_qualified(f"{target}.{rest}")
        return None

    def _resolve_name(self, mod: ModuleInfo, name: str) -> Optional[str]:
        if name in mod.functions:
            return mod.functions[name]
        if name in mod.classes:
            init = mod.classes[name].methods.get("__init__")
            return init or f"{mod.name}.{name}.<class>"
        target = mod.import_map.get(name)
        if target is not None:
            return self._resolve_qualified(target)
        return None

    def _resolve_qualified(self, target: str) -> Optional[str]:
        """A fully qualified target -> known function qual, if any."""
        # direct module-level function: pkg.mod.fn
        mod_name, _, leaf = target.rpartition(".")
        mod = self.modules.get(mod_name)
        if mod is not None:
            if leaf in mod.functions:
                return mod.functions[leaf]
            if leaf in mod.classes:
                init = mod.classes[leaf].methods.get("__init__")
                return init or f"{mod_name}.{leaf}.<class>"
            # re-export through a package __init__: follow one hop
            chained = mod.import_map.get(leaf)
            if chained is not None and chained != target:
                return self._resolve_qualified(chained)
        # method reference: pkg.mod.Class.meth
        cls_path, _, meth = target.rpartition(".")
        cls = self._classes.get(cls_path)
        if cls is not None:
            return cls.methods.get(meth)
        return None

    def _resolve_method(
        self, mod: ModuleInfo, owner: ClassInfo, meth: str
    ) -> Optional[str]:
        seen: set[str] = set()
        queue: list[ClassInfo] = [owner]
        while queue:
            cls = queue.pop(0)
            key = f"{cls.module}.{cls.name}"
            if key in seen:
                continue
            seen.add(key)
            if meth in cls.methods:
                return cls.methods[meth]
            for base in cls.bases:
                resolved = self._resolve_class_ref(cls.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _resolve_class_ref(
        self, from_module: str, ref: str
    ) -> Optional[ClassInfo]:
        mod = self.modules.get(from_module)
        if mod is None:
            return None
        head, _, rest = ref.partition(".")
        if not rest and head in mod.classes:
            return mod.classes[head]
        target = mod.import_map.get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        info = self._classes.get(full)
        if info is not None:
            return info
        # re-export through a package __init__
        mod_name, _, leaf = full.rpartition(".")
        pkg = self.modules.get(mod_name)
        if pkg is not None:
            chained = pkg.import_map.get(leaf)
            if chained is not None:
                return self._classes.get(chained)
        return None


# ----------------------------------------------------------------------
def _display_path(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


def _registered_codes() -> frozenset[str]:
    """Every code a suppression may name: the full rule catalog."""
    # deferred: the catalog imports the rule modules, which import lint
    from .reportfmt import rule_metadata

    return frozenset(rule_metadata())


def _invalid_suppressions(
    mod: ModuleInfo, known_codes: frozenset[str]
) -> Iterator[Finding]:
    """SIM000 findings: a missing reason or an unknown rule code.

    A code outside the catalog is dead weight that silently stops
    guarding anything when rules are renamed or retired, so it fails
    the check exactly like a missing reason.
    """
    for sup in mod.suppressions:
        unknown = sorted(sup.codes - known_codes)
        if sup.reason is None:
            message = ("suppression without a justification: "
                       f"ignore[{', '.join(sorted(sup.codes))}]")
            hint = ("append ' -- <why this is safe>' to the simcheck "
                    "comment; unjustified suppressions fail the check")
        elif unknown:
            message = ("suppression names unknown rule "
                       f"code(s): {', '.join(unknown)}")
            hint = "drop the stale code or fix the typo; see --list-rules"
        else:
            continue
        yield Finding(code=SUPPRESSION_CODE, path=mod.display_path,
                      line=sup.line, col=0, message=message, hint=hint)


def _module_name(path: Path, src_root: Path) -> str:
    rel = path.resolve().relative_to(src_root.resolve())
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Fully qualified base module of a from-import.

    Level ``N`` strips ``N`` components from the importer's *package*
    path: for the module file ``pkg/a/b.py`` the package is ``pkg.a``;
    for the package ``pkg/a/__init__.py`` it is ``pkg.a`` itself.
    """
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]  # the containing package of a plain module
    base_parts = parts[: len(parts) - (node.level - 1)]
    if not base_parts:
        return node.module
    base = ".".join(base_parts)
    return f"{base}.{node.module}" if node.module else base


def _type_checking_blocks(tree: ast.Module) -> set[int]:
    """ids of every node inside an ``if TYPE_CHECKING:`` block."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id if isinstance(test, ast.Name)
            else test.attr if isinstance(test, ast.Attribute)
            else None
        )
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    out.add(id(sub))
    return out


def _annotation_nodes(tree: ast.Module) -> set[int]:
    """ids of every node inside an annotation expression.

    With ``from __future__ import annotations`` (repository-wide
    convention) these never evaluate at runtime, so names appearing
    only there are not runtime uses.
    """
    out: set[int] = set()
    roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.returns is not None:
            roots.append(node.returns)
    for root in roots:
        for sub in ast.walk(root):
            out.add(id(sub))
    return out
