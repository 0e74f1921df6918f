"""Windowed telemetry: snapshots folded from the trace rings.

A :class:`TelemetryHub` watches one
:class:`~repro.obs.trace.TraceCollector` and reads it once per
observation window.  Every ``window_ticks`` event-loop passes it takes
the events each ring gained since the last seal, stitches them — with
the events of requests still open from earlier windows — into request
timelines (:func:`~repro.obs.timeline.stitch`), and seals an immutable
:class:`TelemetrySnapshot`:

* per-lane completion latency (each finished timeline's
  :attr:`~repro.obs.timeline.RequestTimeline.total`) with nearest-rank
  p50/p95/p99 — the latency the SLO layer targets,
* per-stage gap attribution — where the window's microseconds went,
  summed from :meth:`~repro.obs.timeline.RequestTimeline.stage_gaps`,
  the attribution `repro trace` and `repro top` print — plus the share
  *delta* against the previous window (nanoPU's thesis: the tail moves
  between handoffs, so the interesting signal is the derivative),
* per-stage event counts, which cover the overload stages (shed /
  deadline_expired) for free.

A request is counted once, at its serving edge: the front door's
``respond``, or ``response_deliver`` on a bare RDMA channel (no
``ingress``).  A traced client's own half of a call (``xrpc_send`` →
``xrpc_complete``) is the same call seen from the other side, and is
not counted again.

Recording an event stays a plain ring append: the hub costs nothing
between seals.  Consumers subscribe with :meth:`TelemetryHub.add_listener`;
the SLO tracker (:mod:`repro.obs.slo`) and the `repro top --live`
dashboard are pure functions of the snapshots.  Events merged with
:func:`~repro.obs.trace.import_events` land in the rings and are read
at the next seal like local ones (docs/OBSERVABILITY.md §8).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from repro.metrics.registry import percentile

from .timeline import stitch
from .trace import Stage, TraceCollector

__all__ = [
    "STALE_WINDOWS",
    "TelemetryHub",
    "TelemetrySnapshot",
    "render_dashboard",
]


#: seals a request may stay open (not answered at its serving edge)
#: before the hub drops it: a request shed upstream of the edge, or
#: abandoned by its client, must not be held for ever
STALE_WINDOWS = 4

#: the traced client's last stage (``XrpcChannel``): its half of a call
#: is closed here, uncounted — the serving edge counts the call
_CLIENT_COMPLETE = "xrpc_complete"


class TelemetrySnapshot:
    """One sealed observation window — everything downstream consumers
    (SLO tracker, dashboard) are allowed to see.  ``tick_us`` is the
    modeled length of one tick the driver reported (0.0 if none)."""

    __slots__ = (
        "window", "ticks", "tick_us",
        "completed", "lane_latency_us",
        "stage_counts", "gap_seconds", "gap_share", "gap_share_delta",
        "live_entries",
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


class TelemetryHub:
    """Windowed fold over one collector's rings.

    Drive it with :meth:`on_tick` from the event loop and read
    :attr:`last` or subscribe via :meth:`add_listener`.  ``window_ticks``
    sets the observation cadence — the SLO tracker's judgement period,
    so it trades reaction speed against statistical noise per window."""

    def __init__(self, collector: TraceCollector, window_ticks: int = 64) -> None:
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        self.collector = collector
        self.window_ticks = window_ticks
        self.windows_closed = 0
        self.last: TelemetrySnapshot | None = None
        self._listeners: list = []
        self._tick = 0
        self._prev_gap_share: dict = {}
        #: component -> the newest event of its ring already read
        self._marks: dict = {}
        #: events of the requests still open, and the window each
        #: request's contexts were first read in (by context identity)
        self._open: list = []
        self._born: dict = {}

    def add_listener(self, fn) -> None:
        """``fn(snapshot)`` fires on every window close, in add order."""
        self._listeners.append(fn)

    def on_tick(self, tick_us: float | None = None) -> TelemetrySnapshot | None:
        """One event-loop pass; seals and returns a snapshot every
        ``window_ticks`` calls (None otherwise).  ``tick_us`` is the
        modeled length of one tick, which the dashboard prints."""
        self._tick += 1
        if self._tick % self.window_ticks:
            return None
        return self._seal(tick_us)

    def _fresh(self) -> list:
        """The events each ring gained since the last seal, in timestamp
        order (the order :meth:`TraceCollector.events` gives).  A ring
        is scanned from the right down to its mark; a ring that wrapped
        past its mark, or was cleared, is read whole."""
        out = []
        for component, ring in self.collector._rings.items():
            mark = self._marks.get(component)
            new = []
            for ev in reversed(ring):
                if ev is mark:
                    break
                new.append(ev)
            if new:
                self._marks[component] = new[0]
                out.extend(reversed(new))
        out.sort(key=attrgetter("ts"))
        return out

    def _seal(self, tick_us: float | None) -> TelemetrySnapshot:
        window = self.windows_closed
        fresh = self._fresh()
        stage_counts = dict(Counter(map(attrgetter("stage"), fresh)))
        timelines, _ = stitch(self._open + fresh)
        born, self._born, self._open = self._born, {}, []
        lane_lat: dict = {}
        gap_seconds: dict = {}
        live = 0
        for tl in timelines:
            stages = tl.stages()
            if Stage.RESPOND in stages or (
                Stage.RESPONSE_DELIVER in stages and Stage.INGRESS not in stages
            ):
                lane_lat.setdefault(tl.attrs().get("lane", 0), []).append(tl.total * 1e6)
                for _component, stage, seconds in tl.stage_gaps():
                    gap_seconds[stage] = gap_seconds.get(stage, 0.0) + seconds
            elif _CLIENT_COMPLETE not in stages:
                ctxs = {id(ev.ctx) for ev in tl.events}
                first = min(born.get(key, window) for key in ctxs)
                if window - first < STALE_WINDOWS:
                    live += 1
                    self._open.extend(tl.events)
                    self._born.update(dict.fromkeys(ctxs, first))
        total_gap = sum(gap_seconds.values())
        gap_share = {
            stage: seconds / total_gap for stage, seconds in gap_seconds.items()
        } if total_gap > 0 else {}
        gap_delta = {
            stage: share - self._prev_gap_share.get(stage, 0.0)
            for stage, share in gap_share.items()
        }
        for stage, prev in self._prev_gap_share.items():
            if stage not in gap_share:
                gap_delta[stage] = -prev
        lane_latency = {}
        for lane, values in lane_lat.items():
            values.sort()
            lane_latency[lane] = {
                "count": len(values),
                "p50": percentile(values, 0.50),
                "p95": percentile(values, 0.95),
                "p99": percentile(values, 0.99),
                "mean": sum(values) / len(values),
            }
        snap = TelemetrySnapshot(
            window=window,
            ticks=self.window_ticks,
            tick_us=tick_us or 0.0,
            completed=sum(map(len, lane_lat.values())),
            lane_latency_us=lane_latency,
            stage_counts=stage_counts,
            gap_seconds=gap_seconds,
            gap_share=gap_share,
            gap_share_delta=gap_delta,
            live_entries=live,
        )
        self.last = snap
        self.windows_closed += 1
        self._prev_gap_share = gap_share
        for fn in self._listeners:
            fn(snap)
        return snap


# ---------------------------------------------------------------------------
# Dashboard rendering (`repro top --live`)
# ---------------------------------------------------------------------------


def _burn_gauge(burn: float) -> str:
    """A 20-cell bar that fills at burn=2x (the fast-burn alert
    threshold)."""
    filled = min(20, int(round(20 * burn / 2.0)))
    return "█" * filled + "·" * (20 - filled)


def render_dashboard(hub: TelemetryHub, slo=None, lane_names=None) -> str:
    """One refreshable text frame: lane and stage tables, SLO burn
    gauges — the `repro top --live` surface."""
    snap = hub.last
    lines = []
    if snap is None:
        return "telemetry: no windows sealed yet\n"
    lines.append(
        f"window {snap.window}  ticks/window {snap.ticks}  "
        f"completed {snap.completed}  goodput {snap.goodput_per_tick():.3f}/tick  "
        f"in-flight {snap.live_entries}"
    )
    if snap.tick_us:
        # A simulated clock: every stage inside one tick reads a 0 µs
        # gap, so these figures are model time, not system speed.
        lines.append(f"modeled: 1 tick = {snap.tick_us:g} µs")
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
        if stage in (Stage.SHED, Stage.DEADLINE_EXPIRED, Stage.ANOMALY) and n
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
    return "\n".join(lines) + "\n"
