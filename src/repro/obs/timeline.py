"""Stitching stage events into end-to-end request timelines.

A :class:`~repro.obs.trace.TraceCollector` holds flat per-component
rings; this module groups the request-scoped events by trace id —
contexts created independently on the client and server sides of a
channel stitch because the derived (or explicit) trace id binds them to
the same value — orders each group by timestamp, and derives per-stage
latency accounting from the gaps between consecutive stages.

:class:`TailSampler` implements the keep policy: tail-based sampling
decides *after* the request finished, so it can keep exactly the
requests worth looking at — the slowest N plus everything errored,
retried, timed out, or failed over.

:class:`StageLatencyExporter` feeds the same per-stage gaps into
labelled :class:`~repro.metrics.registry.Histogram` metrics, giving the
scrape-side p50/p95/p99 view of the identical data.
"""

from __future__ import annotations

from .trace import Stage, StageEvent, TraceCollector

__all__ = [
    "RequestTimeline",
    "stitch",
    "stage_latencies",
    "TailSampler",
    "StageLatencyExporter",
    "TRACE_LATENCY_BUCKETS",
]


class RequestTimeline:
    """One request's events across every component, in time order."""

    __slots__ = ("tid", "events")

    def __init__(self, tid, events: list[StageEvent]) -> None:
        self.tid = tid
        self.events = sorted(events, key=lambda ev: ev.ts)

    # -- shape -----------------------------------------------------------

    @property
    def start(self) -> float:
        return self.events[0].ts

    @property
    def end(self) -> float:
        last = self.events[-1]
        return last.ts + last.dur

    @property
    def total(self) -> float:
        """End-to-end seconds from the first to the last recorded stage."""
        return self.end - self.start

    def stages(self) -> list[str]:
        return [ev.stage for ev in self.events]

    def components(self) -> set[str]:
        return {ev.component for ev in self.events}

    def attrs(self) -> dict:
        """Union of every context's attributes (client + server halves)."""
        merged: dict = {}
        seen = set()
        for ev in self.events:
            if ev.ctx is not None and id(ev.ctx) not in seen:
                seen.add(id(ev.ctx))
                merged.update(ev.ctx.attrs)
        return merged

    # -- verdicts (tail-sampler inputs) ----------------------------------

    @property
    def errored(self) -> bool:
        from repro.core.wire import Flags

        return any(int(ev.attrs.get("flags", 0)) & Flags.ERROR for ev in self.events)

    @property
    def retried(self) -> bool:
        return any(ev.stage == Stage.RETRY for ev in self.events) or bool(
            self.attrs().get("retry")
        )

    @property
    def failed_over(self) -> bool:
        return any(ev.stage == Stage.FAILOVER for ev in self.events) or bool(
            self.attrs().get("degraded")
        )

    @property
    def exceptional(self) -> bool:
        return any(ev.stage in Stage.EXCEPTIONAL for ev in self.events)

    # -- latency accounting ----------------------------------------------

    def stage_gaps(self) -> list[tuple[str, str, float]]:
        """Per-stage latency attribution: ``(component, stage, seconds)``
        where a stage's latency is the time since the previous stage
        ended (timed stages — dispatch, deserialize — contribute their
        own duration instead, since the gap *is* the duration)."""
        out = []
        prev_end = None
        for ev in self.events:
            if ev.dur:
                out.append((ev.component, ev.stage, ev.dur))
            elif prev_end is not None:
                out.append((ev.component, ev.stage, max(0.0, ev.ts - prev_end)))
            prev_end = ev.ts + ev.dur
        return out

    def render(self) -> str:
        head = (
            f"trace {self.tid}: {len(self.events)} events, "
            f"{self.total * 1e6:.1f}µs end-to-end, "
            f"components={','.join(sorted(self.components()))}"
        )
        body = "\n".join("  " + ev.render() for ev in self.events)
        return f"{head}\n{body}"


def stitch(source) -> tuple[list[RequestTimeline], list[StageEvent]]:
    """Group a collector's (or event list's) request-scoped events into
    timelines; returns ``(timelines, global_events)``.

    Contexts are grouped by their (late-bound) trace id: the client's
    and server's independently created contexts for one request carry
    the same id, so their event groups merge into one timeline.  A
    context whose id never bound (the request never transmitted) keeps
    its events under a synthetic ``("unbound", k)`` id.  Timelines come
    back sorted by start time; ctx-less events (resets, supervisor and
    fault verdicts) are returned separately.
    """
    events = source.events() if isinstance(source, TraceCollector) else list(source)
    global_events: list[StageEvent] = []
    by_ctx: dict[int, list[StageEvent]] = {}
    ctxs: dict[int, object] = {}
    for ev in events:
        if ev.ctx is None:
            global_events.append(ev)
        else:
            by_ctx.setdefault(id(ev.ctx), []).append(ev)
            ctxs[id(ev.ctx)] = ev.ctx
    by_tid: dict[object, list[StageEvent]] = {}
    unbound = 0
    for key, evs in by_ctx.items():
        tid = ctxs[key].tid
        if tid is None:
            tid = ("unbound", unbound)
            unbound += 1
        by_tid.setdefault(tid, []).extend(evs)
    timelines = [RequestTimeline(tid, evs) for tid, evs in by_tid.items()]
    timelines.sort(key=lambda tl: tl.start)
    return timelines, global_events


def stage_latencies(timelines) -> dict[str, list[float]]:
    """Aggregate the per-stage gaps of many timelines by stage name."""
    out: dict[str, list[float]] = {}
    for tl in timelines:
        for _, stage, seconds in tl.stage_gaps():
            out.setdefault(stage, []).append(seconds)
    return out


class TailSampler:
    """Tail-based sampling: decide *after* completion which request
    timelines to keep.  Always keeps the slowest ``keep_slowest`` plus
    every errored / retried / failed-over / otherwise-exceptional
    request (docs/OBSERVABILITY.md#sampling).

    :meth:`sample` is the one-shot form.  Long-running collectors use
    the streaming form instead — :meth:`retain` folds each batch's
    keepers into a retained set, and :meth:`rebase` must be called
    whenever the collector's epoch generation changes (``clear()``
    bumps :attr:`~repro.obs.trace.TraceCollector.epoch_id`; a procs
    supervisor's DPU respawn is a generation too).  Entries recorded
    against an epoch older than ``keep_epochs`` generations are
    evicted: timestamps from a dead epoch are not comparable to the
    current one, so a pre-crash outlier would otherwise sit at the top
    of the slowest-N list forever."""

    def __init__(self, keep_slowest: int = 10, keep_epochs: int = 1) -> None:
        self.keep_slowest = keep_slowest
        self.keep_epochs = keep_epochs
        self._epoch = 0
        self._retained: list[tuple[int, RequestTimeline]] = []
        self.evicted = 0

    def sample(self, timelines) -> list[RequestTimeline]:
        """The kept subset, in start-time order, with reasons recorded
        in each timeline's first context (``sampled_because``)."""
        keep: dict[int, tuple[RequestTimeline, str]] = {}

        def mark(tl: RequestTimeline, why: str) -> None:
            keep.setdefault(id(tl), (tl, why))

        # Exceptional reasons mark first: a request that is both errored
        # and slowest-N keeps its exceptional label, so the streaming
        # form never makes it compete for (and lose) a slow seat.
        for tl in timelines:
            if tl.errored:
                mark(tl, "errored")
            elif tl.retried:
                mark(tl, "retried")
            elif tl.failed_over:
                mark(tl, "failed_over")
            elif tl.exceptional:
                mark(tl, "exceptional")
        for tl in sorted(timelines, key=lambda t: t.total, reverse=True)[
            : self.keep_slowest
        ]:
            mark(tl, "slow")
        out = []
        for tl, why in keep.values():
            for ev in tl.events:
                if ev.ctx is not None:
                    ev.ctx.attrs.setdefault("sampled_because", why)
                    break
            out.append(tl)
        out.sort(key=lambda tl: tl.start)
        return out

    # -- streaming form (long-running / procs collectors) -----------------

    @staticmethod
    def _why(tl: RequestTimeline) -> str:
        for ev in tl.events:
            if ev.ctx is not None:
                return ev.ctx.attrs.get("sampled_because", "slow")
        return "slow"

    def rebase(self, epoch: int) -> int:
        """Note the collector's current epoch generation (its
        ``epoch_id``, or a supervisor respawn counter).  Retained
        timelines more than ``keep_epochs`` generations behind are
        evicted; returns how many."""
        if epoch == self._epoch:
            return 0
        self._epoch = epoch
        horizon = epoch - self.keep_epochs
        before = len(self._retained)
        self._retained = [(e, tl) for e, tl in self._retained if e >= horizon]
        evicted = before - len(self._retained)
        self.evicted += evicted
        return evicted

    def retain(self, timelines, epoch: int | None = None) -> list[RequestTimeline]:
        """Fold one batch's keepers into the retained set (tagging them
        with the current epoch — pass ``epoch`` to rebase in the same
        call) and re-rank: exceptional keeps accumulate, slow keeps
        compete for ``keep_slowest`` seats *within the live epochs
        only*.  Returns the batch's own keepers."""
        if epoch is not None:
            self.rebase(epoch)
        kept = self.sample(timelines)
        self._retained.extend((self._epoch, tl) for tl in kept)
        slow = [(e, tl) for e, tl in self._retained if self._why(tl) == "slow"]
        if len(slow) > self.keep_slowest:
            slow.sort(key=lambda pair: pair[1].total, reverse=True)
            losers = {id(tl) for _, tl in slow[self.keep_slowest:]}
            self._retained = [
                (e, tl) for e, tl in self._retained if id(tl) not in losers
            ]
        return kept

    def retained(self) -> list[RequestTimeline]:
        """The surviving sample across every live epoch, oldest epoch
        first, start-time ordered within an epoch."""
        return [tl for _, tl in sorted(
            self._retained, key=lambda pair: (pair[0], pair[1].start)
        )]


#: Buckets tuned for in-process stage gaps: sub-µs hooks up to ms-scale
#: handler work (the default registry buckets are too coarse below 1µs).
TRACE_LATENCY_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 1.0, float("inf"),
)


class StageLatencyExporter:
    """Feeds per-stage gaps into a :class:`MetricsRegistry` histogram
    (label ``stage``) plus an end-to-end request histogram, making
    p50/p95/p99 per stage available through the standard text exposition
    (`repro metrics`) — the §VI scrape path, now request-aware."""

    def __init__(self, registry) -> None:
        self.stage_hist = registry.histogram(
            "trace_stage_latency_seconds",
            "per-stage request latency (gap since the previous stage)",
            ("stage",),
            buckets=TRACE_LATENCY_BUCKETS,
        )
        self.request_hist = registry.histogram(
            "trace_request_latency_seconds",
            "end-to-end request latency across all traced stages",
            buckets=TRACE_LATENCY_BUCKETS,
        )
        self.observed = 0

    def observe(self, timelines) -> int:
        """Account every timeline's stage gaps; returns requests seen."""
        n = 0
        for tl in timelines:
            for _, stage, seconds in tl.stage_gaps():
                self.stage_hist.labels(stage).observe(seconds)
            self.request_hist.observe(tl.total)
            n += 1
        self.observed += n
        return n

    def table(self) -> str:
        """Stage latency table: count, p50/p95/p99 in µs, per stage."""
        lines = [f"{'stage':<18} {'count':>7} {'p50 µs':>10} {'p95 µs':>10} {'p99 µs':>10}"]
        rows = []
        for key, child in sorted(self.stage_hist._children.items()):
            rows.append((key[0], child))
        for name, child in rows:
            lines.append(
                f"{name:<18} {child.count:>7} "
                f"{child.quantile(0.5) * 1e6:>10.1f} "
                f"{child.quantile(0.95) * 1e6:>10.1f} "
                f"{child.quantile(0.99) * 1e6:>10.1f}"
            )
        r = self.request_hist
        lines.append(
            f"{'(end-to-end)':<18} {r.count:>7} "
            f"{r.quantile(0.5) * 1e6:>10.1f} "
            f"{r.quantile(0.95) * 1e6:>10.1f} "
            f"{r.quantile(0.99) * 1e6:>10.1f}"
        )
        return "\n".join(lines)
