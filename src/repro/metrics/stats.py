"""Small statistics helpers shared by the metrics collector and reports."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = ["RunningStat", "Summary", "summarize", "percentile", "RESERVOIR_CAPACITY"]

#: samples kept per stream for percentile estimation; below this size the
#: reservoir holds every sample and percentiles are exact
RESERVOIR_CAPACITY = 1024

#: fixed seed for the per-stat reservoir sampler — two stats fed the same
#: sample stream keep identical reservoirs, so traced and untraced runs
#: (and repeated runs) report identical percentiles
_RESERVOIR_SEED = 0x5EED


@dataclass(slots=True)
class RunningStat:
    """Streaming count/mean/variance/min/max (Welford's algorithm).

    O(1) memory for the moments; used for per-message-size statistics
    where a simulation can generate hundreds of thousands of samples.
    A bounded reservoir (Vitter's algorithm R, deterministic seed) rides
    along so every consumer also gets p50/p95/p99 estimates — exact
    whenever the stream fits in :data:`RESERVOIR_CAPACITY`.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    minimum: float = math.inf
    maximum: float = -math.inf
    total: float = 0.0
    _reservoir: list = field(default_factory=list, repr=False)
    _sampler: Optional[random.Random] = field(default=None, repr=False, compare=False)

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        if len(self._reservoir) < RESERVOIR_CAPACITY:
            self._reservoir.append(x)
        else:
            # randrange(count) inlined as in add_many: same getrandbits
            # stream, two Python frames fewer per sample
            sampler = self._sampler
            if sampler is None:
                sampler = self._sampler = random.Random(_RESERVOIR_SEED)
            count = self.count
            k = count.bit_length()
            j = sampler.getrandbits(k)
            while j >= count:
                j = sampler.getrandbits(k)
            if j < RESERVOIR_CAPACITY:
                self._reservoir[j] = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def add_many(self, xs: Iterable[float]) -> None:
        """Batched :meth:`add` for hot callers (per-record log metrics).

        State evolution is operation-for-operation identical to repeated
        ``add`` calls — same arithmetic order, same reservoir RNG draws —
        so results stay byte-identical; only the per-sample attribute
        traffic is hoisted out of the loop.  The reservoir index draw
        inlines ``Random._randbelow_with_getrandbits`` (rejection-sample
        ``bit_length(count)`` bits until below ``count``) on the same
        ``Random`` instance, so the underlying getrandbits stream — and
        with it every reservoir — is unchanged.
        """
        count = self.count
        total = self.total
        mean = self.mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        reservoir = self._reservoir
        size = len(reservoir)
        sampler = self._sampler
        getrandbits = None if sampler is None else sampler.getrandbits
        append = reservoir.append
        for x in xs:
            count += 1
            total += x
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if x < minimum:
                minimum = x
            if x > maximum:
                maximum = x
            if size < RESERVOIR_CAPACITY:
                append(x)
                size += 1
            else:
                if getrandbits is None:
                    sampler = random.Random(_RESERVOIR_SEED)
                    getrandbits = sampler.getrandbits
                k = count.bit_length()
                j = getrandbits(k)
                while j >= count:
                    j = getrandbits(k)
                if j < RESERVOIR_CAPACITY:
                    reservoir[j] = x
        self.count = count
        self.total = total
        self.mean = mean
        self._m2 = m2
        self.minimum = minimum
        self.maximum = maximum
        self._sampler = sampler

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Percentile estimate from the reservoir (0.0 for an empty stream).

        Exact while fewer than :data:`RESERVOIR_CAPACITY` samples were
        seen; an unbiased uniform-subsample estimate beyond that.
        """
        if not self._reservoir:
            return 0.0
        return percentile(sorted(self._reservoir), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def quantiles(self) -> dict:
        """The standard tail snapshot: {"p50": ..., "p95": ..., "p99": ...}."""
        data = sorted(self._reservoir)
        if not data:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": percentile(data, 50),
            "p95": percentile(data, 95),
            "p99": percentile(data, 99),
        }

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Combine two streams (Chan et al. parallel variance formula).

        Reservoirs are combined by count-weighted deterministic
        subsampling, keeping the merged reservoir a uniform-ish sample
        of the concatenated stream.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            self._reservoir = list(other._reservoir)
            self._sampler = None
            return self
        merged_pool = self._merged_reservoir(other)
        n = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self.mean = (self.mean * self.count + other.mean * other.count) / n
        self.count = n
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._reservoir = merged_pool
        self._sampler = None
        return self

    def _merged_reservoir(self, other: "RunningStat") -> list:
        pool = self._reservoir + other._reservoir
        if len(pool) <= RESERVOIR_CAPACITY:
            return pool
        # weight by stream size: sample proportionally, deterministically
        rng = random.Random(_RESERVOIR_SEED)
        keep_self = max(1, round(
            RESERVOIR_CAPACITY * self.count / (self.count + other.count)
        ))
        keep_other = RESERVOIR_CAPACITY - keep_self
        out = list(self._reservoir)
        if len(out) > keep_self:
            out = rng.sample(out, keep_self)
        tail = list(other._reservoir)
        if len(tail) > keep_other:
            tail = rng.sample(tail, max(0, keep_other))
        return out + tail


@dataclass(frozen=True)
class Summary:
    """Immutable snapshot of a sample's descriptive statistics."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    total: float
    p50: float
    p95: float
    p99: float = 0.0


def percentile(sorted_xs: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile over an already-sorted sequence."""
    if not sorted_xs:
        raise ValueError("empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if len(sorted_xs) == 1:
        return float(sorted_xs[0])
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_xs[lo])
    frac = pos - lo
    return float(sorted_xs[lo] * (1 - frac) + sorted_xs[hi] * frac)


def summarize(xs: Iterable[float]) -> Summary:
    """Descriptive statistics of a finite sample (materializes it once)."""
    data = sorted(float(x) for x in xs)
    if not data:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rs = RunningStat()
    rs.extend(data)
    return Summary(
        count=rs.count,
        mean=rs.mean,
        stdev=rs.stdev,
        minimum=rs.minimum,
        maximum=rs.maximum,
        total=rs.total,
        p50=percentile(data, 50),
        p95=percentile(data, 95),
        p99=percentile(data, 99),
    )
