"""Prometheus-style metrics primitives.

The paper instruments the RPC-over-RDMA library itself with a Prometheus
client and scrapes it from a monitoring server (§VI).  This module is that
client: counters, gauges and histograms with label support, a registry,
and the text exposition format.  :mod:`repro.metrics.monitor` adds the
scraping/stability side.

Stored metrics hold values someone *observes* into them (per-stage
latencies).  Live component state is read instead, at every scrape, by a
collector (:meth:`MetricsRegistry.add_collector`) that yields
:class:`Family` rows from the component's own plain-int stats — the
Prometheus client's custom-collector idiom: nothing is written on the
datapath and nothing is refreshed before a scrape.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MetricError", "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sample",
    "Family", "counter", "gauge",
]


class MetricError(ValueError):
    """Invalid metric usage (bad labels, negative counter increment...)."""


@dataclass(frozen=True)
class Sample:
    """One exposition sample."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def render(self) -> str:
        if self.labels:
            inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
            return f"{self.name}{{{inner}}} {self.value}"
        return f"{self.name} {self.value}"


@dataclass(frozen=True)
class Family:
    """One metric family as a collector reads it at scrape time."""

    name: str
    help: str
    #: "counter" (monotone) or "gauge"
    type: str
    label_names: tuple[str, ...]
    #: label values (one per label name; ``()`` when unlabelled) -> value
    values: dict

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, tuple(zip(self.label_names, key)), float(value))
            for key, value in self.values.items()
        ]


def counter(name: str, help_text: str, value: float) -> Family:
    """An unlabelled counter family."""
    return Family(name, help_text, "counter", (), {(): value})


def gauge(name: str, help_text: str, value: float) -> Family:
    """An unlabelled gauge family."""
    return Family(name, help_text, "gauge", (), {(): value})


class _MetricBase:
    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...]) -> None:
        if not name.replace("_", "").replace(":", "").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._children: dict[tuple[str, ...], "_MetricBase"] = {}
        self._is_child = False

    def labels(self, *values: str):
        """Child metric for one label combination."""
        if self._is_child:
            raise MetricError("labels() on a child metric")
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name}: expected {len(self.label_names)} label values, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            child._is_child = True
            self._children[key] = child
        return child

    def _new_child(self) -> "_MetricBase":
        """Construct one label-combination leaf (histograms override to
        carry their bucket layout into children)."""
        return type(self)(self.name, self.help, ())

    def _check_leaf(self) -> None:
        if self.label_names and not self._is_child:
            raise MetricError(f"{self.name}: call .labels(...) first")

    def samples(self) -> list[Sample]:
        raise NotImplementedError

    def _iter_leaves(self):
        if self.label_names and not self._is_child:
            for key, child in self._children.items():
                yield tuple(zip(self.label_names, key)), child
        else:
            yield (), self


class Counter(_MetricBase):
    """Monotonically increasing value."""

    def __init__(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._check_leaf()
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease")
        self.value += amount

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, labels, leaf.value) for labels, leaf in self._iter_leaves()
        ]


class Gauge(_MetricBase):
    """Freely settable value."""

    def __init__(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self.value = 0.0

    def set(self, value: float) -> None:
        self._check_leaf()
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._check_leaf()
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._check_leaf()
        self.value -= amount

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, labels, leaf.value) for labels, leaf in self._iter_leaves()
        ]


class Histogram(_MetricBase):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    DEFAULT_BUCKETS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, float("inf"))

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        if list(buckets) != sorted(buckets):
            raise MetricError("buckets must be sorted")
        if buckets and buckets[-1] != float("inf"):
            buckets = tuple(buckets) + (float("inf"),)
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    #: quantiles rendered into the text exposition alongside the buckets
    EXPOSED_QUANTILES = (0.5, 0.95, 0.99)

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, (), self.buckets)

    def observe(self, value: float) -> None:
        self._check_leaf()
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile via linear interpolation inside the
        owning bucket (``histogram_quantile`` semantics).  Returns 0.0
        for an empty histogram; a quantile landing in the ``+Inf`` bucket
        clamps to the highest finite bound — the estimate cannot exceed
        what the layout can resolve."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"{self.name}: quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lo = 0.0
        for bound, c in zip(self.buckets, self.counts):
            prev = cumulative
            cumulative += c
            if cumulative >= target and c:
                if bound == float("inf"):
                    return lo
                return lo + (bound - lo) * ((target - prev) / c)
            if bound != float("inf"):
                lo = bound
        return lo

    def samples(self) -> list[Sample]:
        out = []
        for labels, leaf in self._iter_leaves():
            cumulative = 0
            for bound, c in zip(leaf.buckets, leaf.counts):
                cumulative += c
                le = "+Inf" if bound == float("inf") else repr(bound)
                out.append(
                    Sample(f"{self.name}_bucket", labels + (("le", le),), cumulative)
                )
            out.append(Sample(f"{self.name}_sum", labels, leaf.total))
            out.append(Sample(f"{self.name}_count", labels, leaf.count))
            for q in self.EXPOSED_QUANTILES:
                out.append(
                    Sample(self.name, labels + (("quantile", str(q)),),
                           leaf.quantile(q))
                )
        return out


class MetricsRegistry:
    """Holds stored metrics and collectors; renders the text exposition
    format.  Both are read in the order they were added."""

    def __init__(self) -> None:
        self._metrics: dict[str, _MetricBase] = {}
        #: stored metrics and collector callables, in order added
        self._entries: list = []

    def register(self, metric: _MetricBase):
        if metric.name in self._metrics:
            raise MetricError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        self._entries.append(metric)
        return metric

    def add_collector(self, fn) -> None:
        """Read ``fn()`` — an iterable of :class:`Family` — at every
        scrape, alongside the stored metrics."""
        self._entries.append(fn)

    def counter(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()) -> Counter:
        return self.register(Counter(name, help_text, label_names))

    def gauge(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()) -> Gauge:
        return self.register(Gauge(name, help_text, label_names))

    def histogram(self, name: str, help_text: str = "", label_names: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = Histogram.DEFAULT_BUCKETS) -> Histogram:
        return self.register(Histogram(name, help_text, label_names, buckets))

    def get(self, name: str) -> _MetricBase:
        return self._metrics[name]

    def families(self):
        """Every stored metric and every collected family, in order."""
        for entry in self._entries:
            if isinstance(entry, _MetricBase):
                yield entry
            else:
                yield from entry()

    def collect(self) -> list[Sample]:
        out: list[Sample] = []
        for family in self.families():
            out.extend(family.samples())
        return out

    def expose(self) -> str:
        """Prometheus text format (simplified: HELP + samples)."""
        lines = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.extend(s.render() for s in family.samples())
        return "\n".join(lines) + "\n"
