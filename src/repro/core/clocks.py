"""Logical clocks tracking the ->co relation.

Two clock structures appear in the protocols:

* :class:`MatrixClock` — the n x n ``Write`` matrix of Full-Track.
  ``Write[j][k] = c`` means "c updates sent by application process ap_j to
  site s_k causally happened before (under ->co)".
* :class:`VectorClock` — the size-n ``Write`` vector of optP (Baldoni et
  al.), the full-replication degenerate case where all of ap_j's updates
  go to every site, so one counter per writer suffices.

Both track the *->co* relation rather than Lamport's happened-before:
piggybacked clocks are **not** merged at message receipt, only when a
later read returns the value that travelled with the message (Section
III-A).  The classes here are pure data structures; that merge-on-read
policy lives in the protocols.

NumPy arrays back both clocks: entrywise max over an n x n matrix is the
hot operation in Full-Track runs and vectorizes to a single ufunc call.
(Measured on the micro harness: a list-of-lists merge at n = 40 is ~50x
slower than ``np.maximum(..., out=...)``, so merges stay vectorized.)
Scalar *reads*, by contrast, are ~2x faster from plain Python ints than
from NumPy scalars, so the activation predicates consume lazily-cached
``tolist`` views — :meth:`MatrixClock.column_list` and
:meth:`VectorClock.as_list` — that the mutators invalidate.  Piggybacked
clocks are immutable by protocol convention, so a message's cached view
survives for its whole buffered lifetime.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["MatrixClock", "VectorClock"]


class MatrixClock:
    """An n x n matrix of update counters, indexed [writer][destination]."""

    __slots__ = ("n", "m", "_cols")

    def __init__(self, n: int, values: np.ndarray | None = None) -> None:
        if n <= 0:
            raise ValueError("matrix clock needs n >= 1")
        self.n = n
        if values is None:
            self.m = np.zeros((n, n), dtype=np.int64)
        else:
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (n, n):
                raise ValueError(f"expected shape {(n, n)}, got {arr.shape}")
            if (arr < 0).any():
                raise ValueError("clock entries cannot be negative")
            self.m = arr.copy()
        #: per-destination ``column(...).tolist()`` cache (hot-path reads)
        self._cols: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    def increment(self, writer: int, dests: Iterable[int]) -> None:
        """Record one write by ``writer`` multicast to ``dests``."""
        for d in dests:
            self.m[writer, d] += 1
        if self._cols:
            self._cols.clear()

    def merge(self, other: "MatrixClock") -> None:
        """Entrywise max — the join of the ->co knowledge lattice.

        A smaller ``other`` (piggybacked in an earlier view epoch, before
        this site's clock grew) merges into the top-left block; sites
        that never existed when ``other`` was stamped implicitly carry
        zero entries.  Merging a *larger* clock is still an error — the
        receiver must be grown (``on_view_change``) first.
        """
        if other.n == self.n:
            np.maximum(self.m, other.m, out=self.m)
        elif other.n < self.n:
            k = other.n
            sub = self.m[:k, :k]
            np.maximum(sub, other.m, out=sub)
        else:
            raise ValueError("cannot merge clocks of different dimension")
        if self._cols:
            self._cols.clear()

    def grow(self, n: int) -> None:
        """Pad to dimension ``n`` with zero counters (view epoch grew).

        Idempotent: growing to the current (or a smaller) dimension is a
        no-op, so recovery can always re-grow to the live capacity.
        """
        if n <= self.n:
            return
        m = np.zeros((n, n), dtype=np.int64)
        m[: self.n, : self.n] = self.m
        self.m = m
        self.n = n
        if self._cols:
            self._cols.clear()

    def copy(self) -> "MatrixClock":
        """An independent clone: a fresh array and an empty view cache,
        without ``__init__``'s conversion and negativity check (this
        matrix already passed them)."""
        clone = MatrixClock.__new__(MatrixClock)
        clone.n = self.n
        clone.m = self.m.copy()
        clone._cols = {}
        return clone

    def column(self, dest: int) -> np.ndarray:
        """Counters of updates destined to ``dest``, per writer (a view).

        ``dest`` beyond the matrix dimension reads as all zeros: a clock
        stamped before ``dest`` joined the view (a frozen piggybacked
        snapshot from an earlier epoch) knows no writes destined to it.
        This is the read-side mirror of the zero-padding in :meth:`grow`
        and the top-left-block rule in :meth:`merge`.
        """
        if dest >= self.n:
            return np.zeros(self.n, dtype=np.int64)
        return self.m[:, dest]

    def column_list(self, dest: int) -> list[int]:
        """:meth:`column` as cached plain ints (activation hot path)."""
        col = self._cols.get(dest)
        if col is None:
            if dest >= self.n:
                col = [0] * self.n
            else:
                col = self.m[:, dest].tolist()
            self._cols[dest] = col
        return col

    def __getitem__(self, idx: tuple[int, int]) -> int:
        return int(self.m[idx])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixClock)
            and self.n == other.n
            and bool(np.array_equal(self.m, other.m))
        )

    def dominates(self, other: "MatrixClock") -> bool:
        """True when self >= other entrywise (lattice order)."""
        return bool((self.m >= other.m).all())

    def __repr__(self) -> str:
        return f"MatrixClock(n={self.n}, sum={int(self.m.sum())})"


class VectorClock:
    """A size-n vector of per-writer update counters (optP)."""

    __slots__ = ("n", "v", "_list")

    def __init__(self, n: int, values: Sequence[int] | np.ndarray | None = None) -> None:
        if n <= 0:
            raise ValueError("vector clock needs n >= 1")
        self.n = n
        if values is None:
            self.v = np.zeros(n, dtype=np.int64)
        else:
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (n,):
                raise ValueError(f"expected shape {(n,)}, got {arr.shape}")
            if (arr < 0).any():
                raise ValueError("clock entries cannot be negative")
            self.v = arr.copy()
        #: ``v.tolist()`` cache (activation hot path)
        self._list: list[int] | None = None

    def increment(self, writer: int) -> int:
        """Count one write by ``writer``; returns the new counter value."""
        self.v[writer] += 1
        self._list = None
        return int(self.v[writer])

    def merge(self, other: "VectorClock") -> None:
        """Entrywise max (join).

        As with :meth:`MatrixClock.merge`, a smaller ``other`` (stamped
        in an earlier view epoch) merges into the prefix; a larger one
        is an error.
        """
        if other.n == self.n:
            np.maximum(self.v, other.v, out=self.v)
        elif other.n < self.n:
            k = other.n
            sub = self.v[:k]
            np.maximum(sub, other.v, out=sub)
        else:
            raise ValueError("cannot merge clocks of different dimension")
        self._list = None

    def grow(self, n: int) -> None:
        """Pad to size ``n`` with zero counters (idempotent)."""
        if n <= self.n:
            return
        v = np.zeros(n, dtype=np.int64)
        v[: self.n] = self.v
        self.v = v
        self.n = n
        self._list = None

    def as_list(self) -> list[int]:
        """The vector as cached plain ints (activation hot path)."""
        lst = self._list
        if lst is None:
            lst = self.v.tolist()
            self._list = lst
        return lst

    def copy(self) -> "VectorClock":
        """An independent clone, made as :meth:`MatrixClock.copy` is."""
        clone = VectorClock.__new__(VectorClock)
        clone.n = self.n
        clone.v = self.v.copy()
        clone._list = None
        return clone

    def __getitem__(self, writer: int) -> int:
        return int(self.v[writer])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VectorClock)
            and self.n == other.n
            and bool(np.array_equal(self.v, other.v))
        )

    def dominates(self, other: "VectorClock") -> bool:
        return bool((self.v >= other.v).all())

    def __repr__(self) -> str:
        return f"VectorClock({self.v.tolist()})"
