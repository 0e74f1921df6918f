"""Engine observability: per-pollable counters, read at scrape time.

The paper instruments the RPC library itself and scrapes it with a
Prometheus-style monitor (§VI).  The engine extends that to the runtime
layer: every poll of every registered pollable is counted here — polls,
work items, idle polls (and the derived idle ratio), plus the flush
reasons the endpoints record — so every layer boundary the engine drives
is observable for free.

Counters live as plain ints (the hot path must stay cheap);
:meth:`EngineMetrics.collect` is a registry collector
(:meth:`~repro.metrics.registry.MetricsRegistry.add_collector`) that
reads them as ``engine_polls_total{pollable=...}`` etc. when scraped.
"""

from __future__ import annotations

from repro.metrics.registry import Family, counter

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
    """Aggregates per-pollable metrics."""

    def __init__(self) -> None:
        self.ticks = 0
        #: name -> row; the engine seats a registration's row here
        self.per_pollable: dict[str, PollableMetrics] = {}

    @property
    def total_polls(self) -> int:
        return sum(pm.polls for pm in self.per_pollable.values())

    @property
    def total_work(self) -> int:
        return sum(pm.work_items for pm in self.per_pollable.values())

    def collect(self):
        """The engine's metric families, read from the counters now."""
        rows = self.per_pollable
        yield counter("engine_ticks", "engine scheduling passes", self.ticks)
        yield Family("engine_polls_total", "polls per pollable", "counter", ("pollable",),
                     {(name,): pm.polls for name, pm in rows.items()})
        yield Family("engine_work_items_total", "work items per pollable", "counter",
                     ("pollable",), {(name,): pm.work_items for name, pm in rows.items()})
        yield Family("engine_idle_ratio", "idle poll fraction per pollable", "gauge",
                     ("pollable",), {(name,): pm.idle_ratio for name, pm in rows.items()})
        yield Family("engine_flushes_total", "block flushes by reason", "counter",
                     ("pollable", "reason"),
                     {(name, reason): count for name, pm in rows.items()
                      for reason, count in pm.flushes.items()})

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
