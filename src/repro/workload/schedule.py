"""Operation schedules — the paper's pre-planned event schedules.

Section IV-C: "All the processes in the system are symmetric and
generate operation events (write event or read event) according to a
event schedule planned in advance.  The event schedule is randomly
generated.  The time interval between two events is given from 5ms to
2005ms."

A :class:`Workload` is one such plan: one :class:`SiteSchedule` per
site.  A schedule is three aligned columns — planned times
(``array('d')``), variables (``array('q')``) and write values (a tuple,
``None`` marking a read) — so a 16 000-operation plan is a few flat
buffers, not 16 000 (time, :class:`Operation`) pairs.  The simulator
steps through the columns; ``items`` (the pairs, reads interned one per
variable) is a view built on demand for hand-built schedules, trace
files and tests, and ``SiteSchedule(site, items)`` builds the columns
from such pairs.

Schedules are pure data — generation lives in
:mod:`repro.workload.generator`, execution in :mod:`repro.sim.process` —
so the same workload can be replayed against every protocol (exactly how
the paper compares Opt-Track against Opt-Track-CRP "running the same
operation event scheduling" in Table IV).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["OpKind", "Operation", "SiteSchedule", "Workload"]


class OpKind(enum.Enum):
    WRITE = "w"
    READ = "r"


@dataclass(frozen=True, slots=True)
class Operation:
    """One application operation: w(x_var)value or r(x_var)."""

    kind: OpKind
    var: int
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.WRITE and self.value is None:
            raise ValueError("write operations need a value")
        if self.kind is OpKind.READ and self.value is not None:
            raise ValueError("read operations take no value")

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE


@dataclass(frozen=True, slots=True, init=False)
class SiteSchedule:
    """The timed operation list of one application process, as columns."""

    site: int
    #: planned start time of each operation (ms, non-decreasing)
    times: array
    #: the variable each operation touches
    variables: array
    #: each write's value; ``None`` marks a read
    values: tuple[Optional[int], ...]

    def __init__(self, site: int,
                 items: tuple[tuple[float, Operation], ...]) -> None:
        self._fill(site, array("d", [t for t, _ in items]),
                   array("q", [op.var for _, op in items]),
                   tuple(op.value for _, op in items))

    @classmethod
    def from_columns(cls, site: int, times: array, variables: array,
                     values: tuple[Optional[int], ...]) -> "SiteSchedule":
        """A schedule over ready columns (taken as they are, not copied)."""
        sched = cls.__new__(cls)
        sched._fill(site, times, variables, values)
        return sched

    def _fill(self, site: int, times: array, variables: array,
              values: tuple[Optional[int], ...]) -> None:
        if not len(times) == len(variables) == len(values):
            raise ValueError("schedule columns differ in length")
        last = -1.0
        for t in times:
            if t < 0:
                raise ValueError("operation times must be non-negative")
            if t < last:
                raise ValueError("schedule times must be non-decreasing")
            last = t
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", values)

    @property
    def items(self) -> tuple[tuple[float, Operation], ...]:
        """The (planned time, operation) pairs, built on each read; the
        reads of one variable share one :class:`Operation`."""
        reads: dict[int, Operation] = {}
        return tuple(
            (t, Operation(OpKind.WRITE, var, value) if value is not None
             else reads.get(var) or reads.setdefault(var, Operation(OpKind.READ, var)))
            for t, var, value in zip(self.times, self.variables, self.values))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, Operation]]:
        return iter(self.items)

    @property
    def write_count(self) -> int:
        return len(self.values) - self.values.count(None)

    @property
    def read_count(self) -> int:
        return self.values.count(None)


@dataclass(frozen=True)
class Workload:
    """A complete pre-planned run: one schedule per site."""

    schedules: tuple[SiteSchedule, ...]
    n_vars: int
    #: the write-rate parameter the generator targeted (actual rates vary
    #: by sampling; see :meth:`actual_write_rate`)
    target_write_rate: float = field(default=0.0)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for i, sched in enumerate(self.schedules):
            if sched.site != i:
                raise ValueError(f"schedule {i} labelled with site {sched.site}")
            for var in sched.variables:
                if not 0 <= var < self.n_vars:
                    raise ValueError(f"operation touches var {var} >= q={self.n_vars}")

    @property
    def n_sites(self) -> int:
        return len(self.schedules)

    @property
    def total_operations(self) -> int:
        return sum(len(s) for s in self.schedules)

    @property
    def total_writes(self) -> int:
        return sum(s.write_count for s in self.schedules)

    @property
    def total_reads(self) -> int:
        return sum(s.read_count for s in self.schedules)

    def actual_write_rate(self) -> float:
        """w / (w + r) as realized by the sampled schedule."""
        total = self.total_operations
        return self.total_writes / total if total else 0.0

    def for_site(self, site: int) -> SiteSchedule:
        return self.schedules[site]
