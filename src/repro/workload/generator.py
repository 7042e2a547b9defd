"""Random workload generation matching the paper's benchmark setup.

Defaults reproduce Section IV/V: 600 operations per process, inter-event
gaps uniform in [5, 2005] ms, q = 100 variables chosen uniformly, write
probability ``w_rate``.  Everything is seeded through one
``numpy.random.SeedSequence`` so a workload is a pure function of its
parameters — the property the paper relies on when running the *same*
schedule through different protocols (Table IV), and the property our
regression tests rely on for exact expectations.

Write values encode their origin (site and per-site sequence number), so
any value observed anywhere in a run can be traced back to the write
that produced it even without the write-id plumbing.

Beyond the paper's uniform variable choice, a Zipf-skewed distribution
is available (``var_distribution="zipf"``): realistic stores see heavily
skewed popularity, which concentrates ``LastWriteOn`` churn on a few hot
variables — the skew ablation bench measures what that does to log and
message sizes.
"""

from __future__ import annotations

from array import array

import numpy as np

from .schedule import SiteSchedule, Workload

__all__ = [
    "WorkloadParams",
    "generate_workload",
    "variable_probabilities",
    "encode_value",
    "decode_value",
]

#: paper defaults
PAPER_OPS_PER_PROCESS = 600
PAPER_GAP_RANGE_MS = (5.0, 2005.0)
PAPER_N_VARS = 100

_VALUE_BASE = 1 << 32


def encode_value(site: int, seq: int) -> int:
    """Pack (site, per-site write sequence) into one traceable int."""
    if site < 0 or seq < 0:
        raise ValueError("site and seq must be non-negative")
    return site * _VALUE_BASE + seq


def decode_value(value: int) -> tuple[int, int]:
    """Inverse of :func:`encode_value`."""
    if value < 0:
        raise ValueError("encoded values are non-negative")
    return divmod(value, _VALUE_BASE)


class WorkloadParams:
    """Validated parameter bundle for :func:`generate_workload`."""

    def __init__(
        self,
        n_sites: int,
        *,
        n_vars: int = PAPER_N_VARS,
        write_rate: float = 0.5,
        ops_per_process: int = PAPER_OPS_PER_PROCESS,
        gap_range_ms: tuple[float, float] = PAPER_GAP_RANGE_MS,
        seed: int = 0,
        var_distribution: str = "uniform",
        zipf_s: float = 1.1,
    ) -> None:
        if n_sites <= 0:
            raise ValueError("need at least one site")
        if n_vars <= 0:
            raise ValueError("need at least one variable")
        if not 0.0 <= write_rate <= 1.0:
            raise ValueError("write rate must be in [0, 1]")
        if ops_per_process <= 0:
            raise ValueError("need at least one operation per process")
        lo, hi = gap_range_ms
        if not 0 <= lo <= hi:
            raise ValueError(f"bad gap range {gap_range_ms}")
        if var_distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown variable distribution {var_distribution!r}")
        if zipf_s <= 0:
            raise ValueError("zipf exponent must be positive")
        self.var_distribution = var_distribution
        self.zipf_s = zipf_s
        self.n_sites = n_sites
        self.n_vars = n_vars
        self.write_rate = write_rate
        self.ops_per_process = ops_per_process
        self.gap_range_ms = (float(lo), float(hi))
        self.seed = seed


def variable_probabilities(n_vars: int, distribution: str, zipf_s: float) -> np.ndarray:
    """Per-variable selection probabilities for a distribution spec.

    ``uniform`` is the paper's setting; ``zipf`` makes variable k's
    popularity proportional to 1/(k+1)^s (variable 0 is the hottest).
    """
    if distribution == "uniform":
        return np.full(n_vars, 1.0 / n_vars)
    weights = 1.0 / np.power(np.arange(1, n_vars + 1, dtype=float), zipf_s)
    return weights / weights.sum()


def generate_workload(
    n_sites: int,
    *,
    n_vars: int = PAPER_N_VARS,
    write_rate: float = 0.5,
    ops_per_process: int = PAPER_OPS_PER_PROCESS,
    gap_range_ms: tuple[float, float] = PAPER_GAP_RANGE_MS,
    seed: int = 0,
    var_distribution: str = "uniform",
    zipf_s: float = 1.1,
) -> Workload:
    """Generate the paper's random event schedule for every site.

    Each site gets an independent RNG stream spawned from ``seed``, so
    schedules are stable under changes to *other* sites' parameters and
    identical workloads can be regenerated from (params, seed) alone.
    """
    params = WorkloadParams(
        n_sites,
        n_vars=n_vars,
        write_rate=write_rate,
        ops_per_process=ops_per_process,
        gap_range_ms=gap_range_ms,
        seed=seed,
        var_distribution=var_distribution,
        zipf_s=zipf_s,
    )
    probabilities = variable_probabilities(
        params.n_vars, params.var_distribution, params.zipf_s
    )
    streams = np.random.SeedSequence(params.seed).spawn(params.n_sites)
    schedules = []
    for site in range(params.n_sites):
        rng = np.random.default_rng(streams[site])
        gaps = rng.uniform(*params.gap_range_ms, size=params.ops_per_process)
        times = np.cumsum(gaps)
        variables = rng.choice(
            params.n_vars, size=params.ops_per_process, p=probabilities
        )
        is_write = rng.random(params.ops_per_process) < params.write_rate
        # a write's value is encode_value(site, k) for its per-site
        # sequence number k = 1, 2, ...; a read's is None
        values = np.where(is_write, site * _VALUE_BASE + np.cumsum(is_write),
                          None)
        schedules.append(SiteSchedule.from_columns(
            site,
            array("d", times.tobytes()),
            array("q", variables.astype(np.int64).tobytes()),
            tuple(values.tolist()),
        ))
    return Workload(
        schedules=tuple(schedules),
        n_vars=params.n_vars,
        target_write_rate=params.write_rate,
        seed=params.seed,
    )
