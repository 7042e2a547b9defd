"""Labeled metrics instruments: registry, counters, gauges, summaries.

A :class:`MetricsRegistry` is the single export surface for the whole
stack — event kernel, network, reliable channel, the protocol cores,
failure detector and checkpoint/WAL — and it is a view: every number
it exports has one writer elsewhere (the collector, the channel host,
the detector), and the registry reads it
once at quiescence (``experiments/runner.py::_sample_final_metrics``).
A distribution is exported as a :class:`Summary` bound to the
collector's own :class:`~repro.metrics.stats.RunningStat`, so its count,
sum and quantiles are the collector's, not a second copy.  Design
constraints, in order:

1. **A registry is written only at quiescence.**  No producer holds a
   registry while a run executes, so a run with a registry executes
   exactly the instructions a run without one does.  The one exception
   is ``HeartbeatReporter``'s "at last beat" gauges, written once per
   beat and read by nothing in the run.
2. **Deterministic export.**  Label names are sorted at family creation,
   children sort by label values, families sort by name; combined with
   the seeded reservoir inside each ``RunningStat``, a same-seed double
   run dumps byte-identical Prometheus text and JSONL (tested).

Naming conventions (see docs/observability.md):

- subsystem prefix: ``kernel_``, ``net_``, ``proto_``, ``detector_``,
  ``wal_``, ``crash_``;
- counters end in ``_total``; summaries of durations end in ``_ms``;
- label keys come from {``site``, ``protocol``, ``kind``, ``component``}.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from ..metrics.stats import RunningStat
from .ledger import MetadataLedger

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Summary",
    "MetricFamily",
]

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


class Summary:
    """A distribution the collector keeps, exported as it stands.

    Holds a reference to a :class:`RunningStat`, never a copy: count,
    sum and the p50/p95/p99 of its seeded reservoir are read when the
    registry is exported.
    """

    __slots__ = ("stat",)
    kind = "summary"

    def __init__(self, stat: RunningStat) -> None:
        self.stat = stat

    @property
    def count(self) -> int:
        return self.stat.count

    @property
    def sum(self) -> float:
        return self.stat.total

    def quantiles(self) -> dict:
        """{"p50", "p95", "p99"} from the reservoir (0.0 each when empty)."""
        return self.stat.quantiles()


Child = Union[Counter, Gauge, Summary]


def format_value(v: Number) -> str:
    """Render a number the same way everywhere (15.0 -> "15")."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class MetricFamily:
    """One named metric plus its per-label-set children."""

    __slots__ = ("name", "kind", "help", "label_names", "_children")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Sequence[str]) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        # deterministic label ordering: names are sorted once, here
        self.label_names: tuple[str, ...] = tuple(sorted(label_names))
        self._children: dict[tuple[str, ...], Child] = {}

    def key(self, labels: dict) -> tuple[str, ...]:
        """The child key of a label set, checked against the family's
        label names."""
        if tuple(sorted(labels)) != self.label_names:
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def labels(self, **labels: object) -> Child:
        """Resolve (creating on first use) the counter or gauge child for
        a label set; a summary's child is bound by
        :meth:`MetricsRegistry.summary`."""
        key = self.key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                raise ValueError(f"{self.name}: bind a summary with "
                                 "MetricsRegistry.summary")
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
                labels: Sequence[str]) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = MetricFamily(
                name, kind, help_text, labels)
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

    # -- writes (at quiescence) ---------------------------------------
    def inc(self, name: str, amount: Number = 1, help_text: str = "",
            **labels: object) -> None:
        fam = self._family(name, "counter", help_text, tuple(labels))
        fam.labels(**labels).inc(amount)  # type: ignore[union-attr]

    def set_gauge(self, name: str, value: Number, help_text: str = "",
                  **labels: object) -> None:
        fam = self._family(name, "gauge", help_text, tuple(labels))
        fam.labels(**labels).set(value)  # type: ignore[union-attr]

    def summary(self, name: str, stat: RunningStat, help_text: str = "",
                **labels: object) -> None:
        """Export ``stat`` (held by reference, not copied) as one series
        of summary family ``name``."""
        fam = self._family(name, "summary", help_text, tuple(labels))
        fam._children[fam.key(labels)] = Summary(stat)

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
