"""SIM005: mutating a message (or metadata aliased into one) after send.

Messages are frozen dataclasses, but the tuples/lists/logs *inside*
them — Dests lists, piggyback logs, clock rows — are captured by
reference at construction.  Mutating such an object after the message
entered the network mutates in-flight (and possibly already-delivered)
state at other sites: silent cross-site aliasing that invalidates the
metadata-size accounting the paper's comparisons rest on.

The rule is an intra-procedural *aliasing dataflow* pass.  Statements
are replayed in source order; every assignment updates an alias-class
partition of the function's names:

* ``alias = payload`` joins the two names into one class;
* tuple/list/set displays and comprehensions alias the target to every
  name escaping through an element expression (``pair = (hdr, log)``,
  ``rows = [e.row for e in log]`` — the *elements* stay shared even
  though the container is fresh);
* a call to an unknown helper aliases its result to its arguments
  (``msg = self._make_sm(entries)`` may capture ``entries``), while
  scalar-returning builtins (``len``, ``sum`` ...) and explicit
  copy-breakers (``tuple(x)``, ``frozenset(x)``, ``x.copy()``,
  ``copy.deepcopy(x)``, ``sorted(x)``) start a fresh class;
* rebinding a name to a fresh value detaches it from its old class.

A send/multicast call *taints* the alias class of every name captured
into it (directly, through an inline constructor, or through a display
or comprehension argument).  Any later mutation — a mutator-method
call or an assignment into an attribute/subscript — whose root object
belongs to a tainted class is flagged.

The runtime sanitizer (:mod:`repro.check.sanitizer`) still backstops
what a static approximation cannot prove, but only on the paths a seed
happens to exercise; this pass is the one that certifies the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from ..callgraph import ModuleInfo
from ..lint import Finding, Rule
from .._util import ScopeNode

__all__ = ["MutateAfterSendRule", "PayloadMutation", "analyze_function"]

_SEND_NAMES = frozenset({"send", "multicast", "_send", "_multicast", "_transmit_raw"})
_MUTATORS = frozenset(
    {"append", "add", "update", "extend", "insert", "pop", "remove",
     "discard", "clear", "sort", "reverse", "setdefault", "popitem",
     "increment", "merge",
     # OptTrackLog / TupleLog pruning API: these rewrite the log a
     # piggyback may have been built from (``piggyback_views`` strips
     # the log it walks — implicit condition 2)
     "piggyback_views", "purge", "reset"}
)

#: calls whose result is a *fresh* top-level object (top-level copy),
#: so assigning their result starts a new alias class
_COPY_BREAKERS = frozenset(
    {"tuple", "frozenset", "list", "set", "dict", "sorted", "reversed",
     "copy", "deepcopy", "copy.copy", "copy.deepcopy"}
)
#: builtins returning scalars / non-capturing values: their result does
#: NOT alias their arguments (keeps `n = len(buf)` from linking n→buf)
_SCALAR_BUILTINS = frozenset(
    {"len", "sum", "min", "max", "any", "all", "abs", "round", "int",
     "float", "str", "bool", "repr", "format", "hash", "id", "ord",
     "chr", "isinstance", "issubclass", "divmod", "pow", "range",
     "enumerate", "zip", "print"}
)


@dataclass(frozen=True)
class PayloadMutation:
    """One mutation of data aliased into an already-sent message."""

    node: ast.AST
    ref: str
    #: name actually captured by the send (may differ from ``ref``
    #: when the mutation reached the payload through an alias)
    captured_as: str
    send_line: int
    what: str

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


class _AliasState:
    """Union-find-ish alias classes with taint lines, in replay order."""

    def __init__(self) -> None:
        #: name -> class id
        self._cls: dict[str, int] = {}
        #: class id -> members
        self._members: dict[int, set[str]] = {}
        #: class id -> (send line, name captured) of the earliest taint
        self.taint: dict[int, tuple[int, str]] = {}
        self._next = 0

    def _class_of(self, name: str) -> int:
        cid = self._cls.get(name)
        if cid is None:
            cid = self._next
            self._next += 1
            self._cls[name] = cid
            self._members[cid] = {name}
        return cid

    def fresh(self, name: str) -> None:
        """Rebind ``name`` to a brand-new object (copy-breaker result)."""
        old = self._cls.get(name)
        if old is not None:
            self._members[old].discard(name)
        cid = self._next
        self._next += 1
        self._cls[name] = cid
        self._members[cid] = {name}

    def join(self, target: str, sources: list[str]) -> None:
        """Alias ``target`` with every name in ``sources``."""
        if not sources:
            self.fresh(target)
            return
        # rebinding: target leaves its old class, joins the sources'
        old = self._cls.get(target)
        if old is not None:
            self._members[old].discard(target)
            self._cls.pop(target)
        cid = self._class_of(sources[0])
        for src in sources[1:]:
            other = self._class_of(src)
            if other != cid:
                for member in self._members.pop(other):
                    self._cls[member] = cid
                    self._members[cid].add(member)
                if other in self.taint and (
                    cid not in self.taint or self.taint[other] < self.taint[cid]
                ):
                    self.taint[cid] = self.taint.pop(other)
                else:
                    self.taint.pop(other, None)
        self._cls[target] = cid
        self._members[cid].add(target)

    def mark_sent(self, name: str, line: int) -> None:
        cid = self._class_of(name)
        if cid not in self.taint or line < self.taint[cid][0]:
            self.taint[cid] = (line, name)

    def sent_info(self, name: str) -> Optional[tuple[int, str]]:
        cid = self._cls.get(name)
        if cid is None:
            return None
        return self.taint.get(cid)


class MutateAfterSendRule(Rule):
    code = "SIM005"
    name = "mutate-after-send"
    rationale = (
        "an object captured into a sent message is shared with every "
        "receiver; mutating it after send rewrites in-flight metadata"
    )
    hint = (
        "copy before sending (tuple(...)/frozenset(...)/clock.copy()) or "
        "build the message from an immutable snapshot"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for m in analyze_function(node):
                    alias_note = (
                        "" if m.ref == m.captured_as
                        else f" (aliases {m.captured_as!r})"
                    )
                    yield self.finding(
                        mod, m.node,
                        f"{m.what} {m.ref!r}{alias_note} after it was "
                        f"captured into a message sent at line {m.send_line}",
                    )


def analyze_function(fn: ast.AST) -> list[PayloadMutation]:
    """Replay ``fn``'s statements in source order, tracking aliasing.

    Returns every mutation of (data aliased into) an already-sent
    payload.  Nested function scopes are skipped — they are analyzed on
    their own by the caller.
    """
    events = sorted(
        _iter_events(fn),
        key=lambda e: (getattr(e[1], "lineno", 0),
                       getattr(e[1], "col_offset", 0)),
    )
    state = _AliasState()
    out: list[PayloadMutation] = []
    for kind, node in events:
        if kind == "assign":
            _apply_assign(state, node)
        elif kind == "send":
            for ref in _captured_refs(node):
                state.mark_sent(ref, node.lineno)
        else:  # mutation
            ref, what = _mutation_target(node)
            if ref is None:
                continue
            info = state.sent_info(ref)
            if info is not None and node.lineno > info[0]:
                out.append(PayloadMutation(
                    node=node, ref=ref, captured_as=info[1],
                    send_line=info[0], what=what,
                ))
    return out


def _iter_events(fn: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(kind, node) pairs for every statement of interest in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, ScopeNode) and node is not fn:
            continue  # nested scopes are checked on their own
        if isinstance(node, ast.Call) and _is_send_call(node):
            yield ("send", node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            yield ("assign", node)
            # attribute/subscript targets are also mutations
            yield ("mutation", node)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in _MUTATORS:
                yield ("mutation", node)


def _apply_assign(state: _AliasState, node: ast.AST) -> None:
    if isinstance(node, ast.AugAssign):
        return  # `x += y` keeps x's identity for lists; leave classes alone
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
        value = node.value
    else:
        assert isinstance(node, ast.Assign)
        targets = list(node.targets)
        value = node.value
    if value is None:
        return
    sources, fresh = _escaping_refs(value)
    for tgt in targets:
        if isinstance(tgt, ast.Name):
            if fresh and not sources:
                state.fresh(tgt.id)
            else:
                state.join(tgt.id, sources)
        elif isinstance(tgt, ast.Tuple):
            # a, b = x, y  — pair positionally when shapes match
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(tgt.elts):
                for t, v in zip(tgt.elts, value.elts):
                    if isinstance(t, ast.Name):
                        s, f = _escaping_refs(v)
                        if f and not s:
                            state.fresh(t.id)
                        else:
                            state.join(t.id, s)
            else:
                for t in tgt.elts:
                    if isinstance(t, ast.Name):
                        state.join(t.id, sources)


def _escaping_refs(value: ast.AST) -> tuple[list[str], bool]:
    """(names the value's object graph may share, value-is-fresh flag).

    ``fresh`` means the *top-level* object is newly created, so a plain
    rebind to it detaches the target from its old alias class even when
    no source names escape into it.
    """
    if isinstance(value, ast.Name):
        return [value.id], False
    root = _root_ref(value, whole=True)
    if root is not None:
        return [root], False
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        refs: list[str] = []
        for elt in value.elts:
            refs.extend(_escaping_refs(elt)[0])
        return refs, True
    if isinstance(value, ast.Dict):
        refs = []
        for v in list(value.keys) + list(value.values):
            if v is not None:
                refs.extend(_escaping_refs(v)[0])
        return refs, True
    if isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
        # elements of the fresh container may alias the iterated source
        refs = [
            r
            for name in ast.walk(value)
            if isinstance(name, ast.Name)
            and not isinstance(name.ctx, ast.Store)
            for r in [_comp_ref(name, value)]
            if r is not None
        ]
        return refs, True
    if isinstance(value, ast.Call):
        callee = _callee_name(value)
        if callee in _COPY_BREAKERS:
            return [], True  # fresh copy: breaks aliasing
        if callee in _SCALAR_BUILTINS:
            return [], True  # scalar result: no aliasing either
        # unknown helper: assume its result may capture any argument
        refs = []
        for arg in list(value.args) + [kw.value for kw in value.keywords]:
            refs.extend(_escaping_refs(arg)[0])
        return refs, True
    if isinstance(value, (ast.Constant, ast.BinOp, ast.UnaryOp,
                          ast.Compare, ast.Lambda)):
        return [], True
    if isinstance(value, ast.IfExp):
        a, _ = _escaping_refs(value.body)
        b, _ = _escaping_refs(value.orelse)
        return a + b, False
    if isinstance(value, (ast.Attribute, ast.Subscript)):
        root = _root_ref(value)
        return ([root], False) if root is not None else ([], False)
    return [], False


def _comp_ref(name: ast.Name, comp: ast.AST) -> Optional[str]:
    """A load-context name inside a comprehension, skipping its own
    loop variables (they are comprehension-local)."""
    bound = {
        t.id
        for gen in getattr(comp, "generators", [])
        for t in ast.walk(gen.target)
        if isinstance(t, ast.Name)
    }
    return None if name.id in bound else name.id


def _mutation_target(node: ast.AST) -> tuple[Optional[str], str]:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for tgt in targets:
            if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                return _root_ref(tgt.value), "assignment into"
        return None, ""
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in _MUTATORS:
            return _root_ref(f.value), f".{f.attr}() on"
    return None, ""


def _is_send_call(node: ast.Call) -> bool:
    f = node.func
    name = f.attr if isinstance(f, ast.Attribute) else (
        f.id if isinstance(f, ast.Name) else None
    )
    return name in _SEND_NAMES


def _callee_name(node: ast.Call) -> Optional[str]:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name):
            dotted = f"{f.value.id}.{f.attr}"
            if dotted in _COPY_BREAKERS:
                return dotted
        return f.attr
    return None


def _captured_refs(send_call: ast.Call) -> Iterator[str]:
    """Names aliased into the sent message by this call.

    The message argument itself (when it is a plain name), any name
    captured into a message constructed *inline* in the send call
    (``self._send(dst, SomeSM(log=entries))`` captures ``entries``),
    and names escaping through displays or comprehensions in either
    position (``self._send(dst, (hdr, log))``).
    """
    values = list(send_call.args) + [kw.value for kw in send_call.keywords]
    for value in values:
        ref = _root_ref(value, whole=True)
        if ref is not None:
            yield ref
            continue
        if isinstance(value, ast.Call) and not _is_send_call(value):
            callee = _callee_name(value)
            if callee in _COPY_BREAKERS or callee in _SCALAR_BUILTINS:
                continue  # a snapshot/scalar does not alias its source
            inner = list(value.args) + [kw.value for kw in value.keywords]
            for arg in inner:
                yield from _escaping_refs(arg)[0]
        else:
            yield from _escaping_refs(value)[0]


def _root_ref(node: ast.AST, *, whole: bool = False) -> Optional[str]:
    """Symbolic key for a name or a ``self.x`` attribute.

    For mutation targets the *root* container is what matters
    (``msg.log.append`` mutates ``msg``); with ``whole=True`` an exact
    one-level attribute (``self.x``) keys as ``"self.x"`` so that
    capturing ``self.log`` and later mutating ``self.log`` match.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if base == "self":
                return f"self.{node.attr}"
            return base if not whole else None
        return _root_ref(node.value)
    if isinstance(node, ast.Subscript):
        return _root_ref(node.value)
    return None
