"""Engine observability: per-pollable counters, registry export.

The paper instruments the RPC library itself and scrapes it with a
Prometheus-style monitor (§VI).  The engine extends that to the runtime
layer: every poll of every registered pollable is counted here — polls,
work items, idle polls (and the derived idle ratio), plus the flush
reasons the endpoints record — so every layer boundary the engine drives
is observable for free.

Counters live as plain ints (the hot path must stay cheap); binding a
:class:`~repro.metrics.registry.MetricsRegistry` creates labeled gauges
(``engine_polls_total{pollable=...}`` etc.) that
:meth:`EngineMetrics.sync` refreshes — the engine calls it once per
tick, so a scraper sees current values.
"""

from __future__ import annotations

__all__ = ["PollableMetrics", "EngineMetrics"]


class PollableMetrics:
    """Counters for one registered pollable."""

    __slots__ = ("polls", "work_items", "idle_polls", "flushes")

    def __init__(self) -> None:
        self.polls = 0
        self.work_items = 0
        self.idle_polls = 0
        #: reason -> count; endpoints share their ``flush_reasons`` dict
        #: here at registration time, so their counts surface verbatim.
        self.flushes: dict[str, int] = {}

    def record(self, work: int) -> None:
        self.polls += 1
        self.work_items += work
        if work == 0:
            self.idle_polls += 1

    @property
    def idle_ratio(self) -> float:
        return self.idle_polls / self.polls if self.polls else 0.0


class EngineMetrics:
    """Aggregates per-pollable metrics; optionally mirrors them into a
    metrics registry for scraping."""

    def __init__(self) -> None:
        self.ticks = 0
        #: name -> row; the engine seats a registration's row here
        self.per_pollable: dict[str, PollableMetrics] = {}
        self._registry = None
        self._gauges = None

    @property
    def total_polls(self) -> int:
        return sum(pm.polls for pm in self.per_pollable.values())

    @property
    def total_work(self) -> int:
        return sum(pm.work_items for pm in self.per_pollable.values())

    # -- registry export -----------------------------------------------------

    def bind_registry(self, registry, prefix: str = "engine") -> None:
        """Create the exported metric families in ``registry``."""
        self._registry = registry
        self._gauges = {
            "ticks": registry.gauge(f"{prefix}_ticks", "engine scheduling passes"),
            "polls": registry.gauge(
                f"{prefix}_polls_total", "polls per pollable", ("pollable",)
            ),
            "work": registry.gauge(
                f"{prefix}_work_items_total", "work items per pollable", ("pollable",)
            ),
            "idle": registry.gauge(
                f"{prefix}_idle_ratio", "idle poll fraction per pollable", ("pollable",)
            ),
            "flushes": registry.gauge(
                f"{prefix}_flushes_total",
                "block flushes by reason",
                ("pollable", "reason"),
            ),
        }
        self.sync()

    def sync(self) -> None:
        """Push current counter values into the bound registry."""
        if self._gauges is None:
            return
        g = self._gauges
        g["ticks"].set(self.ticks)
        for name, pm in self.per_pollable.items():
            g["polls"].labels(name).set(pm.polls)
            g["work"].labels(name).set(pm.work_items)
            g["idle"].labels(name).set(pm.idle_ratio)
            for reason, count in pm.flushes.items():
                g["flushes"].labels(name, reason).set(count)

    # -- human-readable summary ----------------------------------------------

    def summary(self) -> str:
        lines = [f"engine: {self.ticks} ticks, {self.total_polls} polls, "
                 f"{self.total_work} work items"]
        for name, pm in sorted(self.per_pollable.items()):
            flushes = (
                " flushes=" + ",".join(f"{r}:{c}" for r, c in sorted(pm.flushes.items()))
                if pm.flushes
                else ""
            )
            lines.append(
                f"  {name}: polls={pm.polls} work={pm.work_items} "
                f"idle_ratio={pm.idle_ratio:.2f}{flushes}"
            )
        return "\n".join(lines)
