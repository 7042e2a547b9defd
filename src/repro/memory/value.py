"""Frozen value types that are cheap to build.

The protocols build their immutable values — write ids, log records,
messages, history events — by the tens of thousands per run.  A frozen
dataclass's generated ``__init__`` routes every field through
``object.__setattr__`` to get past its own ``__setattr__`` guard, which
makes a three-field construction ~1.6x as slow as writing the slots
directly (docs/architecture.md, "Value types").  :func:`value_type` builds the same frozen slotted
dataclass and replaces only that ``__init__``: the new one writes each
slot through the slot's member descriptor, which the guard does not
intercept.

Everything else is what :func:`dataclasses.dataclass` generates —
``fields()``, ``__eq__``, ``__hash__``, ``order=``, ``__repr__``,
``replace()``, pickling, ``FrozenInstanceError`` on assignment — and the
new ``__init__`` has the stock one's signature, defaults and
``__post_init__`` call.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Optional, TypeVar, dataclass_transform, overload

__all__ = ["value_type"]

T = TypeVar("T", bound=type)


@overload
def value_type(cls: T, /) -> T: ...


@overload
def value_type(*, order: bool = False) -> Callable[[T], T]: ...


@dataclass_transform(frozen_default=True)
def value_type(
    cls: Optional[T] = None, /, *, order: bool = False
) -> T | Callable[[T], T]:
    """``@dataclass(frozen=True, slots=True, order=order)`` with an
    ``__init__`` that writes each slot through its member descriptor.

    Fields are positional-or-keyword with plain defaults; a field the
    stock ``__init__`` would treat otherwise (``init=False``,
    ``kw_only``, a ``default_factory``, an ``InitVar``) is a
    ``TypeError`` at class creation."""

    def wrap(cls: T) -> T:
        return _descriptor_init(
            dataclass(frozen=True, slots=True, order=order)(cls))

    return wrap if cls is None else wrap(cls)


def _descriptor_init(cls: Any) -> Any:
    stock = cls.__init__
    namespace: dict[str, object] = {}
    params: list[str] = []
    body: list[str] = []
    for f in fields(cls):
        name = f.name
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        if f.default is MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body),
         namespace)
    init: Any = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = stock.__annotations__
    if inspect.signature(init) != inspect.signature(stock):
        raise TypeError(
            f"{cls.__name__}: value_type supports positional-or-keyword "
            f"fields with plain defaults only")
    cls.__init__ = init
    return cls
