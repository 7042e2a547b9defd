"""Per-site variable store for the distributed shared memory.

Each site holds local replicas of a subset of the q variables.  A stored
value is tagged with the :class:`WriteId` of the write that produced it,
so the execution trace can reconstruct the read-from order exactly — the
verifier needs to know *which* write a read returned, not just the value
(values may repeat across writes).

The initial value of every variable is |bot| (represented as ``None``
with ``write_id`` ``None``), per the memory model of Ahamad et al.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .value import value_type

__all__ = ["WriteId", "StoredValue", "SiteStore", "BOTTOM"]


#: Sentinel for the initial value of every variable.
BOTTOM = None


@value_type(order=True)
class WriteId:
    """Globally unique write identity: (writer site, writer local clock).

    Local clocks count that site's write operations from 1, so write ids
    are totally ordered per writer and unique system-wide.
    """

    site: int
    clock: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.site, self.clock)


@dataclass(slots=True)
class StoredValue:
    """A replica slot: current value plus provenance."""

    value: object = BOTTOM
    write_id: Optional[WriteId] = None
    applied_at: float = 0.0


class SiteStore:
    """The local replicas hosted by one site.

    Only variables in the site's replica set may be read or written here;
    touching a non-replicated variable raises ``KeyError`` — protocol bugs
    where a multicast reaches a non-replica must fail loudly.
    """

    def __init__(self, site: int, replicated_vars: Iterable[int]) -> None:
        self.site = site
        self._slots: dict[int, StoredValue] = {v: StoredValue() for v in replicated_vars}

    def __contains__(self, var: int) -> bool:
        return var in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(self._slots)

    def read(self, var: int) -> StoredValue:
        """Current slot for ``var`` (KeyError if not replicated here)."""
        try:
            return self._slots[var]
        except KeyError:
            raise KeyError(
                f"site {self.site} does not replicate variable {var}"
            ) from None

    def apply(self, var: int, value: object, write_id: WriteId, time: float) -> None:
        """Install a write's value into the local replica of ``var``."""
        slot = self.read(var)
        slot.value = value
        slot.write_id = write_id
        slot.applied_at = time
