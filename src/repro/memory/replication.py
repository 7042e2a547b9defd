"""Replica placement: which sites hold which variables.

The shared memory Q has q variables; each is replicated at p of the n
sites (the *replication factor*).  The paper assumes variables are
"evenly replicated on all the sites" so that each site stores pq/n
variables on average and a read misses its local replica set with
probability (n-p)/n.  ``RoundRobinPlacement`` realizes that assumption
exactly; random and hash placements are provided for sensitivity studies.

A placement also fixes, per (variable, reader) pair, the *predesignated*
replica contacted by ``RemoteFetch`` (Section II-B): we pick the replica
closest to the reader in ring distance, which is deterministic and spreads
fetch load evenly under round-robin placement.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

__all__ = [
    "Placement",
    "RoundRobinPlacement",
    "RandomPlacement",
    "HashPlacement",
    "full_replication",
    "paper_replication_factor",
    "PLACEMENT_NAMES",
    "make_placement",
]


def paper_replication_factor(n: int, fraction: float = 0.3) -> int:
    """The paper's partial-replication factor p = 0.3 * n, rounded, >= 1.

    Rounding matches the paper's own data: e.g. at n=5 the reported
    message counts fit p=2 (= round(1.5)), not p=1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    return max(1, min(n, round(fraction * n)))


class Placement(abc.ABC):
    """Mapping of variables to replica site sets, plus fetch routing."""

    def __init__(self, n_sites: int, n_vars: int, replication_factor: int) -> None:
        if n_sites <= 0:
            raise ValueError("need at least one site")
        if n_vars <= 0:
            raise ValueError("need at least one variable")
        if not 1 <= replication_factor <= n_sites:
            raise ValueError(
                f"replication factor {replication_factor} outside [1, {n_sites}]"
            )
        self.n_sites = n_sites
        self.n_vars = n_vars
        self.replication_factor = replication_factor
        self._replicas: list[tuple[int, ...]] = [
            tuple(sorted(self._compute_replicas(v))) for v in range(n_vars)
        ]
        for v, reps in enumerate(self._replicas):
            if len(reps) != replication_factor or len(set(reps)) != replication_factor:
                raise ValueError(f"placement produced bad replica set for var {v}: {reps}")
        self._vars_at: list[tuple[int, ...]] = [
            tuple(v for v in range(n_vars) if s in self._replicas[v])
            for s in range(n_sites)
        ]
        self._replica_sets: list[frozenset[int]] = [
            frozenset(reps) for reps in self._replicas
        ]
        #: fixed at construction: full-replication protocols keep their
        #: p = n contract across view changes (joiners replicate
        #: everything), so this is a *mode*, not a live p == n check.
        self._full_mode = replication_factor == n_sites

    @abc.abstractmethod
    def _compute_replicas(self, var: int) -> Iterable[int]:
        """Return the replica site set for ``var`` (exactly p distinct sites)."""

    # ------------------------------------------------------------------
    def replicas(self, var: int) -> tuple[int, ...]:
        """Sites replicating ``var`` (sorted, length = replication factor)."""
        return self._replicas[var]

    def replica_set(self, var: int) -> frozenset[int]:
        """Replica sites of ``var`` as an interned frozenset.

        The write/apply hot paths consume destination *sets*; sharing one
        frozenset per variable avoids re-freezing the same tuple on
        every write and every SM apply.
        """
        return self._replica_sets[var]

    def vars_at(self, site: int) -> tuple[int, ...]:
        """Variables locally replicated at ``site`` (the paper's X_i)."""
        return self._vars_at[site]

    def is_replicated_at(self, var: int, site: int) -> bool:
        """True when ``site`` holds a replica of ``var``."""
        return site in self._replicas[var]

    def fetch_site(self, var: int, reader: int) -> int:
        """Predesignated replica serving ``reader``'s remote reads of ``var``.

        Chooses the replica with minimal clockwise ring distance from the
        reader; deterministic, and the identity replica when the reader
        itself holds the variable.
        """
        reps = self._replicas[var]
        if reader in reps:
            return reader
        return min(reps, key=lambda s: ((s - reader) % self.n_sites, s))

    @property
    def is_full(self) -> bool:
        """True when every variable is replicated at every member (p = n).

        Under elastic membership this reports the placement's *mode*
        (fixed at construction): a full-replication placement stays full
        across joins (the joiner replicates everything) and leaves (the
        survivors still each hold every variable).
        """
        return self._full_mode

    # ------------------------------------------------------------------
    # elastic membership (see repro.sim.membership)
    # ------------------------------------------------------------------
    def add_site(self, *, replicate_all: bool) -> int:
        """Grow the site id space by one; returns the new site's id.

        ``replicate_all`` (full-replication mode) gives the joiner a
        replica of every variable; otherwise the joiner starts with an
        empty replica set and serves reads remotely.
        """
        site = self.n_sites
        self.n_sites += 1
        if replicate_all:
            self._replicas = [reps + (site,) for reps in self._replicas]
            self._replica_sets = [frozenset(reps) for reps in self._replicas]
            self._vars_at.append(tuple(range(self.n_vars)))
            self.replication_factor += 1
        else:
            self._vars_at.append(())
        return site

    def remove_site(self, site: int, handoff: dict[int, int]) -> None:
        """Remove ``site`` from every replica set.

        ``handoff`` maps each variable *solely* replicated at ``site``
        to the member adopting its replica; every solely-held variable
        must appear in it (the membership layer computes the map).
        """
        new_replicas: list[tuple[int, ...]] = []
        for var, reps in enumerate(self._replicas):
            if site not in reps:
                new_replicas.append(reps)
                continue
            rest = tuple(s for s in reps if s != site)
            if not rest:
                rest = (handoff[var],)
            new_replicas.append(tuple(sorted(rest)))
        self._replicas = new_replicas
        self._replica_sets = [frozenset(reps) for reps in new_replicas]
        self._vars_at = [
            tuple(v for v in range(self.n_vars) if s in self._replicas[v])
            for s in range(self.n_sites)
        ]
        self.replication_factor = min(len(reps) for reps in new_replicas)

    def load_balance(self) -> np.ndarray:
        """Replica count hosted per site, for balance assertions in tests."""
        counts = np.zeros(self.n_sites, dtype=np.int64)
        for reps in self._replicas:
            for s in reps:
                counts[s] += 1
        return counts


class RoundRobinPlacement(Placement):
    """Variable v lives at sites {v, v+1, ..., v+p-1} (mod n).

    This is the canonical "evenly replicated" layout: every site hosts
    either floor(pq/n) or ceil(pq/n) variables.
    """

    def _compute_replicas(self, var: int) -> Iterable[int]:
        return [(var + t) % self.n_sites for t in range(self.replication_factor)]


class RandomPlacement(Placement):
    """Each variable's replica set is a uniform random p-subset of sites."""

    def __init__(
        self,
        n_sites: int,
        n_vars: int,
        replication_factor: int,
        *,
        seed: int = 0,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        super().__init__(n_sites, n_vars, replication_factor)

    def _compute_replicas(self, var: int) -> Iterable[int]:
        # plain ints: a numpy integer site id fails wherever a site id
        # seeds a stdlib RNG or is encoded (the live channel does both)
        chosen = self._rng.choice(self.n_sites, size=self.replication_factor,
                                  replace=False)
        return [int(s) for s in chosen]


class HashPlacement(Placement):
    """Deterministic pseudo-random placement from a hash of the var id.

    Unlike :class:`RandomPlacement` this needs no RNG state, so two
    independently constructed placements with the same parameters agree —
    handy when sites are built in separate components.
    """

    def _compute_replicas(self, var: int) -> Iterable[int]:
        # Simple multiplicative hash walk over the ring; collisions skipped.
        chosen: list[int] = []
        x = (var * 2654435761 + 0x9E3779B9) % (2**32)
        while len(chosen) < self.replication_factor:
            x = (x * 6364136223846793005 + 1442695040888963407) % (2**64)
            s = x % self.n_sites
            if s not in chosen:
                chosen.append(int(s))
        return chosen


def full_replication(n_sites: int, n_vars: int) -> RoundRobinPlacement:
    """Placement with p = n: every site replicates every variable."""
    return RoundRobinPlacement(n_sites, n_vars, n_sites)


_PLACEMENTS: dict[str, type[Placement]] = {
    "round-robin": RoundRobinPlacement,
    "hash": HashPlacement,
}

#: every placement name a simulation config or topology file may give
PLACEMENT_NAMES = (*_PLACEMENTS, "random")


def make_placement(
    name: str, n_sites: int, n_vars: int, replication_factor: int, *,
    seed: int = 0,
) -> Placement:
    """The placement called ``name``; only ``"random"`` reads ``seed``."""
    if name == "random":
        return RandomPlacement(n_sites, n_vars, replication_factor, seed=seed)
    return _PLACEMENTS[name](n_sites, n_vars, replication_factor)
