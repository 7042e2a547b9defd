"""Labeled metrics instruments: registry, counters, gauges, histograms.

A :class:`MetricsRegistry` is the single export surface for the whole
stack — event kernel, network, reliable channel, the protocol cores,
failure detector, checkpoint/WAL, and membership — with one writer per
number.  Only distributions are streamed into it while a run executes
(the protocol histograms, the kernel batch hook, the crash and WAL
histograms): their buckets live nowhere else.  Every total is read once
at quiescence (``experiments/runner.py::_sample_final_metrics``) from
the store that already counts it — the collector, the channel host, the
detector, the view manager — so no producer hands the registry a second
copy.  Design constraints, in order:

1. **Zero allocation on the disabled path.**  Every streaming producer
   holds ``registry: Optional[MetricsRegistry] = None`` and guards each
   emit with a single ``is None`` branch — the same byte-identical
   guarantee the tracer established.  No instrument objects exist
   unless a registry does.
2. **Deterministic export.**  Label names are sorted at family creation,
   children sort by label values, families sort by name; combined with
   the seeded reservoir inside :class:`Histogram`, a same-seed double
   run dumps byte-identical Prometheus text and JSONL (tested).
3. **Cheap hot-path emits.**  Producers resolve a child once
   (``family.labels(...)``) and then call ``inc/set/observe`` on it —
   a dict-free attribute bump.  The convenience ``registry.inc(name,
   **labels)`` form is for cold paths only.

Naming conventions (see docs/observability.md):

- subsystem prefix: ``kernel_``, ``net_``, ``proto_``, ``detector_``,
  ``wal_``, ``crash_``, ``membership_``;
- counters end in ``_total``; histograms of durations end in ``_ms``;
- label keys come from {``site``, ``protocol``, ``kind``, ``component``}.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence, Union

from ..metrics.stats import RunningStat
from .ledger import MetadataLedger

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "DEFAULT_BUCKETS",
]

#: generic log-ish bucket ladder; instruments may override per-family.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

Number = Union[int, float]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed cumulative buckets, optional reservoir for exact quantiles.

    Buckets follow Prometheus semantics: ``bucket_counts[i]`` counts
    observations ``<= buckets[i]``, with an implicit ``+Inf`` bucket at
    the end.  With ``reservoir=True`` an embedded :class:`RunningStat`
    keeps the seeded algorithm-R reservoir, so p50/p95/p99 come from
    real samples; hot-path instruments pass ``reservoir=False`` and get
    bucket-interpolated quantiles instead — Prometheus
    ``histogram_quantile`` semantics at a fraction of the per-observe
    cost (one bisect + three attribute bumps).

    Bucket interpolation assumes non-negative observations (true of
    every instrument here: depths, counts, durations).
    """

    __slots__ = ("buckets", "bucket_counts", "_count", "_sum", "stat")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS, *,
                 reservoir: bool = True) -> None:
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self.stat: Optional[RunningStat] = RunningStat() if reservoir else None

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        stat = self.stat
        if stat is not None:
            stat.add(float(value))

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantiles(self) -> dict:
        """{"p50", "p95", "p99"} — exact from the reservoir when one is
        attached, bucket-interpolated otherwise (0.0 each when empty)."""
        if self.stat is not None:
            return self.stat.quantiles()
        if self._count == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": self._bucket_percentile(0.50 * self._count),
            "p95": self._bucket_percentile(0.95 * self._count),
            "p99": self._bucket_percentile(0.99 * self._count),
        }

    def _bucket_percentile(self, rank: float) -> float:
        """Linear interpolation inside the bucket holding ``rank``.

        Observations above the last finite bound clamp to that bound —
        the standard Prometheus ``histogram_quantile`` convention.
        """
        cum = 0
        lower = 0.0
        for ub, c in zip(self.buckets, self.bucket_counts):
            if cum + c >= rank:
                if c == 0:
                    return float(ub)
                return lower + (ub - lower) * (rank - cum) / c
            cum += c
            lower = ub
        return float(self.buckets[-1]) if self.buckets else 0.0

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """[(le_label, cumulative_count)] ending with ``+Inf``."""
        out: list[tuple[str, int]] = []
        running = 0
        for le, c in zip(self.buckets, self.bucket_counts):
            running += c
            out.append((format_value(le), running))
        out.append(("+Inf", running + self.bucket_counts[-1]))
        return out


Child = Union[Counter, Gauge, Histogram]


def format_value(v: Number) -> str:
    """Render a number the same way everywhere (15.0 -> "15")."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class MetricFamily:
    """One named metric plus its per-label-set children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets",
                 "reservoir", "_children")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Sequence[str],
                 buckets: Optional[Sequence[float]] = None,
                 reservoir: bool = True) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        # deterministic label ordering: names are sorted once, here
        self.label_names: tuple[str, ...] = tuple(sorted(label_names))
        self.buckets = tuple(sorted(buckets)) if buckets is not None else None
        self.reservoir = reservoir
        self._children: dict[tuple[str, ...], Child] = {}

    def labels(self, **labels: object) -> Child:
        """Resolve (creating on first use) the child for a label set.

        Call once per producer and cache the returned child — the child
        methods are the hot path, not this resolver.
        """
        if tuple(sorted(labels)) != self.label_names:
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets or DEFAULT_BUCKETS,
                                  reservoir=self.reservoir)
            self._children[key] = child
        return child

    def samples(self) -> Iterator[tuple[tuple[str, ...], Child]]:
        """Children sorted by label values — the deterministic order
        every exporter iterates in."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """Instrument registry + the metadata ledger, one per run.

    Families are created lazily and checked for kind/label consistency;
    iteration is always name-sorted so exports are deterministic.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: metadata-byte view of the run's collector, exported next to
        #: the instruments; ``run_simulation`` points it at the run's
        #: collector
        self.ledger = MetadataLedger()

    # -- family creation ----------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None,
                reservoir: bool = True) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = MetricFamily(
                name, kind, help_text, labels, buckets, reservoir)
        else:
            if fam.kind != kind:
                raise ValueError(
                    f"{name}: registered as {fam.kind}, requested {kind}")
            if fam.label_names != tuple(sorted(labels)):
                raise ValueError(
                    f"{name}: registered with labels {fam.label_names}, "
                    f"requested {tuple(sorted(labels))}")
            if help_text and not fam.help:
                fam.help = help_text
        return fam

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None,
                  reservoir: bool = True) -> MetricFamily:
        return self._family(name, "histogram", help_text, labels, buckets,
                            reservoir)

    # -- cold-path convenience ----------------------------------------
    def inc(self, name: str, amount: Number = 1, help_text: str = "",
            **labels: object) -> None:
        self.counter(name, help_text, tuple(labels)).labels(**labels).inc(amount)  # type: ignore[union-attr]

    def set_gauge(self, name: str, value: Number, help_text: str = "",
                  **labels: object) -> None:
        self.gauge(name, help_text, tuple(labels)).labels(**labels).set(value)  # type: ignore[union-attr]

    def observe(self, name: str, value: Number, help_text: str = "",
                **labels: object) -> None:
        self.histogram(name, help_text, tuple(labels)).labels(**labels).observe(value)  # type: ignore[union-attr]

    # -- iteration / introspection ------------------------------------
    def families(self) -> Iterator[MetricFamily]:
        """Families sorted by name (deterministic export order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return (f"<MetricsRegistry families={len(self._families)} "
                f"ledger_keys={len(self.ledger.lifetime)}>")

    # -- kernel hook ---------------------------------------------------
    def install_kernel_hook(self, sim, stride: int = 16) -> None:
        """Wire the batch histograms into a Simulator.

        Sampling lives in the dispatch loop itself
        (``Simulator.batch_observer_stride``): skipped batches cost one
        inline increment, never a Python call into the hook.  Batch-size
        and heap-depth distributions are shape metrics, so a
        deterministic 1-in-``stride`` sample preserves them; exact event
        totals come from ``kernel_events_total`` at end of run.
        """
        sim.batch_observer = self.kernel_batch_hook(stride)
        sim.batch_observer_stride = stride

    def kernel_batch_hook(self, stride: int = 16):
        """Build the Simulator.batch_observer callback (unsampled —
        pair with ``batch_observer_stride`` via
        :meth:`install_kernel_hook`; ``stride`` only labels the help
        text)."""
        batch_h = self.histogram(
            "kernel_batch_size",
            f"events dispatched per same-timestamp batch "
            f"(1-in-{stride} batch sample)",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128),
            reservoir=False,
        ).labels()
        heap_h = self.histogram(
            "kernel_heap_depth",
            f"pending-event heap length (1-in-{stride} batch sample)",
            reservoir=False,
        ).labels()

        def hook(now: float, batch_events: int, heap_len: int) -> None:
            batch_h.observe(batch_events)  # type: ignore[union-attr]
            heap_h.observe(heap_len)  # type: ignore[union-attr]

        return hook
