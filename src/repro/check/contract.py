"""The declarative layer contract: parsing and module->layer assignment.

``layers.toml`` (repository root) declares the architecture the
analyzers enforce:

* ``[layers.<name>]`` — a named layer with its ``modules`` (dotted
  prefixes, longest prefix wins) and ``may_import`` (other layer names
  it may depend on; a layer may always import itself);
* ``[[ports]]`` — explicitly sanctioned crossings outside the
  ``may_import`` lattice, each with a ``kind``:

  - ``annotation-only``: the import exists for type annotations only;
    the checker *verifies* no imported name is used at runtime
    (exploiting the repo-wide ``from __future__ import annotations``
    convention) and flags violations as LAY002.  On an edge the
    lattice allows, such a port narrows it to annotations;
  - ``sanctioned``: a reviewed crossing allowed as-is (use sparingly —
    each one weakens the substrate-independence certificate);

* ``[[effects.forbid]]`` — rules, each with ``trees`` (dotted
  prefixes), the ``effects`` those trees must never reach, and a
  ``reason``; ``[[effects.allow]]`` entries are reviewed exceptions to
  every rule.

Parsed with :mod:`tomllib` (python >= 3.11); no third-party TOML
dependency.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "EFFECTS",
    "Contract",
    "ContractError",
    "EffectAllow",
    "EffectForbid",
    "Layer",
    "Port",
    "PORT_KINDS",
]

PORT_KINDS = ("annotation-only", "sanctioned")

#: the effect classes :mod:`repro.check.effects` infers
EFFECTS = (
    "WALL_CLOCK",
    "UNSEEDED_RNG",
    "FILE_IO",
    "NETWORK",
    "SIM_INTERNAL",
)


class ContractError(ValueError):
    """layers.toml is malformed (unknown kind, missing field, ...)."""


@dataclass(frozen=True)
class Layer:
    name: str
    #: dotted module prefixes owned by this layer (longest prefix wins)
    modules: tuple[str, ...]
    #: layer names this layer may import (itself is always allowed);
    #: "*" means anything
    may_import: tuple[str, ...]
    #: top-level stdlib modules this layer must not import at runtime
    forbidden_stdlib: tuple[str, ...] = ()


@dataclass(frozen=True)
class Port:
    """One sanctioned crossing: importer prefix -> imported prefix."""

    importer: str
    imported: str
    kind: str
    reason: str

    def matches(self, importer_mod: str, imported_mod: str) -> bool:
        return _has_prefix(importer_mod, self.importer) and _has_prefix(
            imported_mod, self.imported
        )


@dataclass(frozen=True)
class EffectAllow:
    """A reviewed exception: this qual prefix may carry these effects."""

    function: str
    effects: tuple[str, ...]
    reason: str

    def matches(self, qual: str, effect: str) -> bool:
        return effect in self.effects and _has_prefix(qual, self.function)


@dataclass(frozen=True)
class EffectForbid:
    """A rule: functions under these trees must not reach these effects."""

    trees: tuple[str, ...]
    effects: tuple[str, ...]
    reason: str


@dataclass
class Contract:
    package: str
    layers: dict[str, Layer] = field(default_factory=dict)
    ports: list[Port] = field(default_factory=list)
    effect_forbids: list[EffectForbid] = field(default_factory=list)
    effect_allows: list[EffectAllow] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Contract":
        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError) as exc:
            raise ContractError(f"{path}: {exc}") from exc
        return cls.from_dict(data, source=str(path))

    @classmethod
    def from_dict(cls, data: dict, *, source: str = "<dict>") -> "Contract":
        project = data.get("project", {})
        contract = cls(package=str(project.get("package", "repro")))
        for name, spec in data.get("layers", {}).items():
            modules = tuple(spec.get("modules", ()))
            if not modules:
                raise ContractError(
                    f"{source}: layer '{name}' declares no modules"
                )
            contract.layers[name] = Layer(
                name=name,
                modules=modules,
                may_import=tuple(spec.get("may_import", ())),
                forbidden_stdlib=tuple(spec.get("forbidden_stdlib", ())),
            )
        for layer in contract.layers.values():
            for dep in layer.may_import:
                if dep != "*" and dep not in contract.layers:
                    raise ContractError(
                        f"{source}: layer '{layer.name}' may_import "
                        f"unknown layer '{dep}'"
                    )
        for spec in data.get("ports", ()):
            kind = spec.get("kind", "")
            if kind not in PORT_KINDS:
                raise ContractError(
                    f"{source}: port {spec.get('importer')!r} -> "
                    f"{spec.get('imported')!r} has unknown kind {kind!r} "
                    f"(expected one of {', '.join(PORT_KINDS)})"
                )
            if not spec.get("reason"):
                raise ContractError(
                    f"{source}: port {spec.get('importer')!r} -> "
                    f"{spec.get('imported')!r} has no reason — every "
                    "sanctioned crossing must be justified"
                )
            contract.ports.append(Port(
                importer=str(spec["importer"]),
                imported=str(spec["imported"]),
                kind=kind,
                reason=str(spec["reason"]),
            ))
        eff = data.get("effects", {})
        for spec in eff.get("forbid", ()):
            effects, reason = _effect_entry(spec, spec.get("trees"), source)
            contract.effect_forbids.append(EffectForbid(
                trees=tuple(spec.get("trees", ())),
                effects=effects,
                reason=reason,
            ))
        for spec in eff.get("allow", ()):
            effects, reason = _effect_entry(spec, spec.get("function"), source)
            contract.effect_allows.append(EffectAllow(
                function=str(spec["function"]),
                effects=effects,
                reason=reason,
            ))
        return contract

    # ------------------------------------------------------------------
    def layer_of(self, module: str) -> Optional[Layer]:
        """Longest-prefix layer assignment for a dotted module name."""
        best: Optional[Layer] = None
        best_len = -1
        for layer in self.layers.values():
            for prefix in layer.modules:
                if _has_prefix(module, prefix) and len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
        return best

    def port_for(self, importer: str, imported: str) -> Optional[Port]:
        """The most specific port covering this crossing, if any."""
        best: Optional[Port] = None
        best_len = -1
        for port in self.ports:
            if port.matches(importer, imported):
                key = len(port.importer) + len(port.imported)
                if key > best_len:
                    best, best_len = port, key
        return best

    def forbidding(self, qual: str, effect: str) -> Optional[str]:
        """The tree of the first forbid rule banning ``effect`` at
        ``qual``, or None when no rule does or an allow entry covers it."""
        if any(a.matches(qual, effect) for a in self.effect_allows):
            return None
        for rule in self.effect_forbids:
            if effect in rule.effects:
                for tree in rule.trees:
                    if _has_prefix(qual, tree):
                        return tree
        return None


def _effect_entry(
    spec: dict, name: object, source: str
) -> tuple[tuple[str, ...], str]:
    """(effects, reason) of a forbid or allow entry, validated."""
    effects = tuple(spec.get("effects", ()))
    unknown = sorted(set(effects) - set(EFFECTS))
    if unknown:
        # a misspelt class would silently never match
        raise ContractError(
            f"{source}: effects entry for {name!r} names unknown effect "
            f"class(es) {', '.join(unknown)}"
        )
    if not spec.get("reason"):
        raise ContractError(
            f"{source}: effects entry for {name!r} has no reason"
        )
    return effects, str(spec["reason"])


def _has_prefix(dotted: str, prefix: str) -> bool:
    return dotted == prefix or dotted.startswith(prefix + ".")
