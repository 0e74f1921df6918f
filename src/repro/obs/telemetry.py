"""Streaming telemetry: the pipeline half of the closed observability loop.

PR 5 made every request's latency attributable to a stage; this module
makes that signal *continuous*.  A :class:`TelemetryHub` attaches to a
:class:`~repro.obs.trace.TraceCollector` as its streaming sink, so every
:class:`~repro.obs.trace.StageEvent` is folded into the current
observation window at record time — O(1) per event, no ring rescans —
and every ``window_ticks`` event-loop passes the hub seals the window
into an immutable :class:`TelemetrySnapshot`:

* per-lane completion latency with exact p50/p95/p99 (the latency the
  SLO layer targets),
* per-stage gap attribution — where the window's microseconds went —
  plus the share *delta* against the previous window (nanoPU's thesis:
  the tail moves between handoffs, so the interesting signal is the
  derivative),
* rate counters for every ``(component, stage)`` pair, which covers the
  overload stages (shed / deadline_expired / degrade / ...) for free,
* deltas from attachable counter *sources* (engine/endpoint/codec
  counters that are not stage events).

Consumers subscribe with :meth:`TelemetryHub.add_listener`; the SLO
tracker (:mod:`repro.obs.slo`) and the autotuner
(:mod:`repro.runtime.autotune`) are both pure functions of these
snapshots.  Cross-process runs need no extra plumbing: events merged via
:func:`~repro.obs.trace.import_events` are offered to the sink in
timestamp order, so a parent-side hub aggregates child traffic the same
way it aggregates local traffic (docs/AUTOTUNE.md#telemetry).
"""

from __future__ import annotations

from collections import deque

from repro.metrics.registry import Family, counter, gauge

from .trace import Stage, TraceCollector

__all__ = [
    "TelemetryHub",
    "TelemetrySnapshot",
    "exact_quantile",
    "render_dashboard",
]


def exact_quantile(sorted_values, q: float) -> float:
    """Exact ``q``-quantile of an ascending list, linear interpolation
    between ranks (0 when empty).  Exact — not bucketed — because the
    autotuner compares windows against each other and bucket edges would
    quantize away the differences it steers by."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo]) * (1.0 - frac) + float(sorted_values[hi]) * frac


#: stages that complete a request from the hub's point of view (the
#: server edge's ``respond`` for server-side tracing, the client edge's
#: ``xrpc_complete`` / ``response_deliver`` when the client is traced too)
_TERMINAL_STAGES = frozenset({Stage.RESPOND, Stage.RESPONSE_DELIVER, "xrpc_complete"})


class _LiveEntry:
    """One in-flight request's accumulating state (pre-completion)."""

    __slots__ = ("first_ts", "prev_end", "lane", "gaps", "events", "window")

    def __init__(self, ts: float, window: int) -> None:
        self.first_ts = ts
        self.prev_end = None
        self.lane = None
        self.gaps: list = []          # (component, stage, seconds)
        self.events = 0
        self.window = window          # window of the first event (staleness)

    def merge(self, other: "_LiveEntry") -> None:
        """Fold another half of the same request in (the client-side and
        server-side contexts share a late-bound tid; whichever entry
        registered second folds into the first)."""
        self.first_ts = min(self.first_ts, other.first_ts)
        if self.prev_end is None or (
            other.prev_end is not None and other.prev_end > self.prev_end
        ):
            self.prev_end = other.prev_end
        if self.lane is None:
            self.lane = other.lane
        self.gaps.extend(other.gaps)
        self.events += other.events
        self.window = min(self.window, other.window)


class TelemetrySnapshot:
    """One sealed observation window — everything downstream consumers
    (SLO tracker, autotuner, dashboard) are allowed to see."""

    __slots__ = (
        "window", "ticks", "duration_s", "epoch_id",
        "completed", "completed_by_lane", "lane_latency_us",
        "stage_counts", "component_stage_counts",
        "gap_seconds", "gap_share", "gap_share_delta",
        "source_totals", "source_deltas", "live_entries",
    )

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    # -- convenience accessors (what the SLO specs read) -----------------

    def lane_p99_us(self, lane: int) -> float:
        stats = self.lane_latency_us.get(lane)
        return stats["p99"] if stats else 0.0

    def goodput_per_tick(self) -> float:
        return self.completed / self.ticks if self.ticks else 0.0

    def stage_count(self, stage: str) -> int:
        return self.stage_counts.get(stage, 0)

    def deadline_miss_rate(self) -> float:
        """Fraction of this window's outcomes that missed: sheds plus
        deadline expiries over (those + completions)."""
        missed = self.stage_count(Stage.SHED) + self.stage_count(
            Stage.DEADLINE_EXPIRED
        )
        outcomes = missed + self.completed
        return missed / outcomes if outcomes else 0.0

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "ticks": self.ticks,
            "completed": self.completed,
            "completed_by_lane": dict(self.completed_by_lane),
            "lane_latency_us": {k: dict(v) for k, v in self.lane_latency_us.items()},
            "stage_counts": dict(self.stage_counts),
            "gap_share": dict(self.gap_share),
            "source_deltas": {k: dict(v) for k, v in self.source_deltas.items()},
        }


class TelemetryHub:
    """Streaming aggregator: collector sink in, windowed snapshots out.

    Attach with ``collector.attach_sink(hub)`` (or pass the collector
    here), drive with :meth:`on_tick` from the event loop, and read
    :attr:`last` or subscribe via :meth:`add_listener`.

    ``window_ticks`` sets the observation cadence — it is the autotuner's
    decision period, so it trades reaction speed against statistical
    noise per window.  ``max_windows`` bounds retained history;
    ``stale_windows`` bounds how long an in-flight entry may live before
    the hub gives up on its completion (requests dropped without any
    terminal stage must not leak)."""

    def __init__(self, collector: TraceCollector | None = None,
                 window_ticks: int = 64, max_windows: int = 32,
                 stale_windows: int = 4,
                 latency_exporter=None) -> None:
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        self.window_ticks = window_ticks
        self.max_windows = max_windows
        self.stale_windows = stale_windows
        #: optional StageLatencyExporter — completed requests' gaps are
        #: fed into its registry histograms, so `repro metrics` and the
        #: hub expose the same data through one surface.
        self.latency_exporter = latency_exporter
        self.collector = collector
        self.events_seen = 0
        self.windows_closed = 0
        self.completed_total = 0
        self.snapshots: deque = deque(maxlen=max_windows)
        self._listeners: list = []
        self._sources: dict[str, object] = {}
        self._source_last: dict[str, dict] = {}
        # -- current-window accumulators ---------------------------------
        self._tick = 0
        self._window = 0
        self._completed = 0
        self._completed_by_lane: dict = {}
        self._lane_lat: dict = {}          # lane -> [latency_us, ...]
        self._stage_counts: dict = {}
        self._comp_stage_counts: dict = {}
        self._gap_seconds: dict = {}       # stage -> total seconds
        self._prev_gap_share: dict = {}
        # -- live (in-flight) request entries -----------------------------
        self._by_tid: dict = {}
        self._by_ctx: dict = {}
        if collector is not None:
            collector.attach_sink(self)

    # -- wiring ----------------------------------------------------------

    def add_listener(self, fn) -> None:
        """``fn(snapshot)`` fires on every window close, in add order."""
        self._listeners.append(fn)

    def add_source(self, name: str, fn) -> None:
        """Attach a counter source: ``fn()`` returns ``{name: value}``;
        the hub records per-window deltas (and absolute totals) for it.
        This is how the overload / endpoint / codec counters that are
        not stage events join the snapshot surface."""
        self._sources[name] = fn
        self._source_last[name] = dict(fn())

    def collect(self):
        """The hub's rolling state as metric families — a registry
        collector, so trace-derived and counter-derived signals share one
        scrape surface.  Window figures come from the last sealed window."""
        last = self.last
        yield counter("telemetry_windows_closed", "observation windows sealed",
                      self.windows_closed)
        yield counter("telemetry_events_streamed", "stage events folded into windows",
                      self.events_seen)
        yield gauge("telemetry_goodput_per_tick", "completions per tick, last window",
                    last.goodput_per_tick() if last is not None else 0)
        yield Family("telemetry_lane_p99_us", "per-lane p99 latency, last window",
                     "gauge", ("lane",),
                     {} if last is None else {
                         (str(lane),): stats["p99"]
                         for lane, stats in last.lane_latency_us.items()})
        yield gauge("telemetry_live_entries", "in-flight request entries held",
                    len(self._by_tid) + len(self._by_ctx))

    # -- the streaming sink (called from StageRecorder.event) ------------

    def offer(self, ev) -> None:
        """Fold one stage event into the current window.  O(1)."""
        self.events_seen += 1
        stage = ev.stage
        self._stage_counts[stage] = self._stage_counts.get(stage, 0) + 1
        key = (ev.component, stage)
        self._comp_stage_counts[key] = self._comp_stage_counts.get(key, 0) + 1
        ctx = ev.ctx
        if ctx is None:
            return
        # -- locate (or create) the live entry: tid key wins, identity
        #    key covers the pre-bind stages (enqueue/seal happen before
        #    transmit binds the id).
        tid = ctx.tid
        entry = None
        if tid is not None:
            entry = self._by_tid.get(tid)
        ident = id(ctx)
        by_ident = self._by_ctx.get(ident)
        if by_ident is not None and entry is not None and by_ident is not entry:
            entry.merge(by_ident)
            del self._by_ctx[ident]
        elif by_ident is not None and entry is None:
            entry = by_ident
            if tid is not None:
                # the id just bound: promote from identity to tid keying
                self._by_tid[tid] = entry
                del self._by_ctx[ident]
        if entry is None:
            if stage in _TERMINAL_STAGES:
                # A terminal stage with no live entry: the request already
                # completed under an earlier terminal (response_deliver
                # before the front's respond).  Starting a new entry here
                # would just park a one-event orphan until eviction.
                return
            entry = _LiveEntry(ev.ts, self._window)
            if tid is not None:
                self._by_tid[tid] = entry
            else:
                self._by_ctx[ident] = entry
        # -- gap attribution, streaming mirror of RequestTimeline.stage_gaps
        if ev.dur:
            entry.gaps.append((ev.component, stage, ev.dur))
        elif entry.prev_end is not None:
            entry.gaps.append(
                (ev.component, stage, max(0.0, ev.ts - entry.prev_end))
            )
        end = ev.ts + ev.dur
        if entry.prev_end is None or end > entry.prev_end:
            entry.prev_end = end
        entry.events += 1
        if entry.lane is None and "lane" in ctx.attrs:
            entry.lane = ctx.attrs["lane"]
        if stage in _TERMINAL_STAGES and entry.events >= 2:
            self._complete(entry, ev, tid, ident)

    def _complete(self, entry, ev, tid, ident) -> None:
        lane = entry.lane if entry.lane is not None else 0
        latency_us = (ev.ts + ev.dur - entry.first_ts) * 1e6
        self._completed += 1
        self.completed_total += 1
        self._completed_by_lane[lane] = self._completed_by_lane.get(lane, 0) + 1
        self._lane_lat.setdefault(lane, []).append(latency_us)
        for _component, stage, seconds in entry.gaps:
            self._gap_seconds[stage] = self._gap_seconds.get(stage, 0.0) + seconds
        if self.latency_exporter is not None:
            for _component, stage, seconds in entry.gaps:
                self.latency_exporter.stage_hist.labels(stage).observe(seconds)
            self.latency_exporter.request_hist.observe(latency_us * 1e-6)
            self.latency_exporter.observed += 1
        if tid is not None:
            self._by_tid.pop(tid, None)
        self._by_ctx.pop(ident, None)

    # -- windowing (called from the event loop) ---------------------------

    def progress(self, budget: int | None = None) -> int:
        """Pollable adapter: register the hub on a
        :class:`~repro.runtime.engine.ProgressEngine` and every engine
        pass becomes one hub tick — windows seal on the reactor's own
        cadence, no side loop."""
        self.on_tick()
        return 0

    def on_tick(self, tick_us: float | None = None) -> TelemetrySnapshot | None:
        """One event-loop pass; seals and returns a snapshot every
        ``window_ticks`` calls (None otherwise).  ``tick_us`` sizes the
        reported window duration; omitted, durations are in ticks."""
        self._tick += 1
        if self._tick % self.window_ticks:
            return None
        return self._seal(tick_us)

    def _seal(self, tick_us: float | None) -> TelemetrySnapshot:
        total_gap = sum(self._gap_seconds.values())
        gap_share = {
            stage: seconds / total_gap
            for stage, seconds in self._gap_seconds.items()
        } if total_gap > 0 else {}
        gap_delta = {
            stage: share - self._prev_gap_share.get(stage, 0.0)
            for stage, share in gap_share.items()
        }
        for stage, prev in self._prev_gap_share.items():
            if stage not in gap_share:
                gap_delta[stage] = -prev
        lane_latency = {}
        for lane, values in self._lane_lat.items():
            values.sort()
            lane_latency[lane] = {
                "count": len(values),
                "p50": exact_quantile(values, 0.50),
                "p95": exact_quantile(values, 0.95),
                "p99": exact_quantile(values, 0.99),
                "mean": sum(values) / len(values),
            }
        totals: dict = {}
        deltas: dict = {}
        for name, fn in self._sources.items():
            current = dict(fn())
            last = self._source_last[name]
            totals[name] = current
            deltas[name] = {
                k: v - last.get(k, 0) for k, v in current.items()
            }
            self._source_last[name] = current
        snap = TelemetrySnapshot(
            window=self._window,
            ticks=self.window_ticks,
            duration_s=(self.window_ticks * tick_us * 1e-6) if tick_us else 0.0,
            epoch_id=self.collector.epoch_id if self.collector is not None else 0,
            completed=self._completed,
            completed_by_lane=dict(self._completed_by_lane),
            lane_latency_us=lane_latency,
            stage_counts=dict(self._stage_counts),
            component_stage_counts=dict(self._comp_stage_counts),
            gap_seconds=dict(self._gap_seconds),
            gap_share=gap_share,
            gap_share_delta=gap_delta,
            source_totals=totals,
            source_deltas=deltas,
            live_entries=len(self._by_tid) + len(self._by_ctx),
        )
        self.snapshots.append(snap)
        self.windows_closed += 1
        self._prev_gap_share = gap_share
        # reset window accumulators
        self._window += 1
        self._completed = 0
        self._completed_by_lane = {}
        self._lane_lat = {}
        self._stage_counts = {}
        self._comp_stage_counts = {}
        self._gap_seconds = {}
        self._evict_stale()
        for fn in self._listeners:
            fn(snap)
        return snap

    def _evict_stale(self) -> None:
        """Drop in-flight entries whose request will clearly never
        complete (shed upstream of any terminal stage, client vanished):
        unbounded live-entry growth would be a leak under overload."""
        horizon = self._window - self.stale_windows
        if horizon <= 0:
            return
        for table in (self._by_tid, self._by_ctx):
            stale = [k for k, e in table.items() if e.window < horizon]
            for k in stale:
                del table[k]

    @property
    def last(self) -> TelemetrySnapshot | None:
        return self.snapshots[-1] if self.snapshots else None


# ---------------------------------------------------------------------------
# Dashboard rendering (`repro top --live`, `repro tune`)
# ---------------------------------------------------------------------------


def _burn_gauge(burn: float, width: int = 20) -> str:
    """A bar that fills at burn=2x (the fast-burn alert threshold)."""
    filled = min(width, int(round(width * burn / 2.0)))
    return "█" * filled + "·" * (width - filled)


def render_dashboard(hub: TelemetryHub, slo=None, tuner=None,
                     lane_names=None) -> str:
    """One refreshable text frame: stage table, SLO burn gauges, last
    tuner actions — the `repro top --live` / `repro tune` surface."""
    snap = hub.last
    lines = []
    if snap is None:
        return "telemetry: no windows sealed yet\n"
    lines.append(
        f"window {snap.window}  ticks/window {snap.ticks}  "
        f"completed {snap.completed}  goodput {snap.goodput_per_tick():.3f}/tick  "
        f"in-flight {snap.live_entries}"
    )
    lines.append("")
    lines.append(f"{'lane':<10} {'count':>6} {'p50 µs':>10} {'p95 µs':>10} {'p99 µs':>10}")
    for lane in sorted(snap.lane_latency_us):
        stats = snap.lane_latency_us[lane]
        name = (lane_names or {}).get(lane, str(lane))
        lines.append(
            f"{name:<10} {stats['count']:>6} {stats['p50']:>10.1f} "
            f"{stats['p95']:>10.1f} {stats['p99']:>10.1f}"
        )
    lines.append("")
    lines.append(f"{'stage':<20} {'count':>7} {'gap share':>10} {'Δ share':>9}")
    by_share = sorted(
        snap.gap_share.items(), key=lambda kv: kv[1], reverse=True
    )
    for stage, share in by_share[:12]:
        delta = snap.gap_share_delta.get(stage, 0.0)
        lines.append(
            f"{stage:<20} {snap.stage_count(stage):>7} {share:>9.1%} {delta:>+8.1%}"
        )
    overload = [
        (stage, n) for stage, n in sorted(snap.stage_counts.items())
        if stage in (Stage.SHED, Stage.DEADLINE_EXPIRED, Stage.DEGRADE,
                     Stage.RECOVER, Stage.BREAKER_FALLBACK, Stage.ANOMALY)
        and n
    ]
    if overload:
        lines.append("")
        lines.append("overload: " + "  ".join(f"{s}={n}" for s, n in overload))
    if slo is not None:
        lines.append("")
        lines.append(f"{'SLO':<24} {'value':>10} {'target':>10} {'burn':>6}  budget")
        for st in slo.status():
            lines.append(
                f"{st['name']:<24} {st['value']:>10.2f} {st['target']:>10.2f} "
                f"{st['burn_short']:>5.2f}x  [{_burn_gauge(st['burn_short'])}]"
                + ("  BURNING" if st["burning"] else "")
            )
    if tuner is not None and tuner.decisions:
        lines.append("")
        lines.append("last tuner actions:")
        for d in list(tuner.decisions)[-5:]:
            lines.append("  " + d.render())
    return "\n".join(lines) + "\n"
