"""SLO tracking over telemetry windows: burn rates, anomalies, events.

The telemetry hub (:mod:`repro.obs.telemetry`) answers *what is
happening*; this module answers *is it acceptable* — the judgement the
`repro top --live` dashboard's gauges show.

**Specs** are declarative: a :class:`SloSpec` names a signal (a latency
lane's p99, the goodput floor, the deadline-miss rate), a target, and an
error budget — the fraction of observation windows allowed to violate
the target.  **Burn rate** is the SRE formulation: over a horizon of
``h`` windows, ``burn = violation_rate / budget``; burn 1x spends the
budget exactly, burn 2x spends it twice as fast.  The tracker evaluates
every spec over a *short* and a *long* horizon and alerts only when both
burn (the standard multi-window guard against one noisy window paging
and against slow leaks hiding inside a long average).

**Anomalies** are a different failure shape: a stage whose gap suddenly
detaches from its own history, before any SLO notices.  The detector
keeps a rolling window of each stage's per-window mean gap and flags
values outside ``median ± k·MAD`` (median absolute deviation — robust to
the very outliers it hunts).

Both produce typed :class:`SloEvent` records, and — when given a
recorder — emit them into the trace stream as first-class stages
(``slo_burn`` / ``slo_recovered`` / ``stage_anomaly``), so a Perfetto
export shows the judgement layer reacting on the same timeline as the
datapath it judges (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from collections import deque

from .trace import Stage

__all__ = [
    "SloSpec",
    "SloEvent",
    "SloTracker",
    "AnomalyDetector",
    "rolling_median",
]

#: spec kinds and the snapshot signal each one reads
KIND_LANE_P99 = "lane_p99_us"        # lane p99 must stay under target µs
KIND_GOODPUT = "goodput_per_tick"    # completions/tick must stay over target
KIND_MISS_RATE = "deadline_miss_rate"  # sheds+expiries fraction under target


class SloSpec:
    """One declarative objective (docs/OBSERVABILITY.md)."""

    __slots__ = ("name", "kind", "target", "lane", "budget")

    def __init__(self, name: str, kind: str, target: float,
                 lane: int | None = None, budget: float = 0.1) -> None:
        if kind not in (KIND_LANE_P99, KIND_GOODPUT, KIND_MISS_RATE):
            raise ValueError(f"unknown SLO kind {kind!r}")
        if kind == KIND_LANE_P99 and lane is None:
            raise ValueError("lane_p99_us specs need a lane")
        if not 0.0 < budget <= 1.0:
            raise ValueError("budget is a fraction of windows in (0, 1]")
        self.name = name
        self.kind = kind
        self.target = target
        self.lane = lane
        self.budget = budget

    def value(self, snapshot) -> float:
        """The measured signal for one telemetry window."""
        if self.kind == KIND_LANE_P99:
            return snapshot.lane_p99_us(self.lane)
        if self.kind == KIND_GOODPUT:
            return snapshot.goodput_per_tick()
        return snapshot.deadline_miss_rate()

    def violated(self, snapshot) -> bool:
        value = self.value(snapshot)
        if self.kind == KIND_GOODPUT:
            return value < self.target
        if self.kind == KIND_LANE_P99 and snapshot.lane_latency_us.get(self.lane) is None:
            return False  # no traffic on the lane: nothing to judge
        return value > self.target


class SloEvent:
    """One typed judgement: a burn alert, a recovery, or an anomaly."""

    __slots__ = ("kind", "name", "window", "value", "target",
                 "burn_short", "burn_long", "attrs")

    def __init__(self, kind: str, name: str, window: int, value: float,
                 target: float, burn_short: float = 0.0,
                 burn_long: float = 0.0, **attrs) -> None:
        self.kind = kind
        self.name = name
        self.window = window
        self.value = value
        self.target = target
        self.burn_short = burn_short
        self.burn_long = burn_long
        self.attrs = attrs

    def render(self) -> str:
        return (
            f"w{self.window} {self.kind} {self.name}: value={self.value:.2f} "
            f"target={self.target:.2f} burn={self.burn_short:.2f}x/{self.burn_long:.2f}x"
        )


def rolling_median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class AnomalyDetector:
    """Rolling median + MAD outlier detection on per-stage gap means.

    ``k`` is the MAD multiple (with the 1.4826 normal-consistency factor
    a gaussian signal alerts at ~k sigma); ``min_history`` windows must
    accumulate before a stage can alert at all, and a stage with MAD 0
    (perfectly constant history) uses ``floor`` as the scale so a single
    quantization step cannot page."""

    def __init__(self, window: int = 16, k: float = 5.0,
                 min_history: int = 6, floor: float = 1e-7) -> None:
        self.window = window
        self.k = k
        self.min_history = min_history
        self.floor = floor
        self._history: dict[str, deque] = {}
        self.anomalies = 0

    def observe(self, snapshot) -> list[SloEvent]:
        """Feed one window; returns anomaly events (possibly empty)."""
        out = []
        for stage, total in snapshot.gap_seconds.items():
            count = snapshot.stage_count(stage)
            mean = total / count if count else 0.0
            hist = self._history.setdefault(stage, deque(maxlen=self.window))
            if len(hist) >= self.min_history:
                median = rolling_median(hist)
                mad = rolling_median([abs(v - median) for v in hist])
                scale = max(mad * 1.4826, self.floor)
                if abs(mean - median) > self.k * scale:
                    self.anomalies += 1
                    out.append(SloEvent(
                        Stage.ANOMALY, stage, snapshot.window,
                        mean * 1e6, median * 1e6,
                        deviation=round((mean - median) / scale, 2),
                    ))
            hist.append(mean)
        return out


class SloTracker:
    """Evaluates specs over every telemetry window; emits burn-rate and
    anomaly events, optionally into the trace stream.

    Subscribe it to a hub (``hub.add_listener(tracker.observe)``) or
    call :meth:`observe` by hand.  ``recorder`` — a
    :class:`~repro.obs.trace.StageRecorder` — turns judgements into
    traced stages; None keeps the tracker silent but inspectable."""

    def __init__(self, specs, short_windows: int = 3, long_windows: int = 12,
                 recorder=None, anomaly: AnomalyDetector | None = None) -> None:
        if short_windows < 1 or long_windows < short_windows:
            raise ValueError("need 1 <= short_windows <= long_windows")
        self.specs = list(specs)
        self.short_windows = short_windows
        self.long_windows = long_windows
        self.recorder = recorder
        self.anomaly = anomaly
        self.events: list[SloEvent] = []
        self._violations: dict[str, deque] = {
            spec.name: deque(maxlen=long_windows) for spec in self.specs
        }
        self._burning: dict[str, bool] = {spec.name: False for spec in self.specs}
        self._last: dict[str, dict] = {}
        self.windows_seen = 0

    # -- burn accounting -------------------------------------------------

    def _burn(self, name: str, budget: float, horizon: int) -> float:
        window = self._violations[name]
        if not window:
            return 0.0
        recent = list(window)[-horizon:]
        # Divide by the horizon, not the observed history: windows that
        # have not happened yet count as non-violating, so a single
        # cold-start violation cannot saturate the long horizon and page.
        return (sum(recent) / horizon) / budget

    def burn(self) -> float:
        """Worst short-horizon burn across all specs, as one scalar."""
        worst = 0.0
        for spec in self.specs:
            worst = max(worst, self._burn(spec.name, spec.budget,
                                          self.short_windows))
        return worst

    def burning(self) -> bool:
        return any(self._burning.values())

    # -- the listener ----------------------------------------------------

    def observe(self, snapshot) -> list[SloEvent]:
        """Evaluate one sealed window; returns the events it produced."""
        self.windows_seen += 1
        produced: list[SloEvent] = []
        for spec in self.specs:
            violated = spec.violated(snapshot)
            self._violations[spec.name].append(1 if violated else 0)
            burn_short = self._burn(spec.name, spec.budget, self.short_windows)
            burn_long = self._burn(spec.name, spec.budget, self.long_windows)
            value = spec.value(snapshot)
            now_burning = burn_short > 1.0 and burn_long > 1.0
            was_burning = self._burning[spec.name]
            self._last[spec.name] = {
                "name": spec.name, "kind": spec.kind, "value": value,
                "target": spec.target, "violated": violated,
                "burn_short": burn_short, "burn_long": burn_long,
                "burning": now_burning,
            }
            if now_burning and not was_burning:
                produced.append(SloEvent(
                    Stage.SLO_BURN, spec.name, snapshot.window, value,
                    spec.target, burn_short, burn_long, slo_kind=spec.kind,
                ))
            elif was_burning and not now_burning:
                produced.append(SloEvent(
                    Stage.SLO_RECOVERED, spec.name, snapshot.window, value,
                    spec.target, burn_short, burn_long, slo_kind=spec.kind,
                ))
            self._burning[spec.name] = now_burning
        if self.anomaly is not None:
            produced.extend(self.anomaly.observe(snapshot))
        self.events.extend(produced)
        if self.recorder is not None:
            for ev in produced:
                self.recorder.instant(
                    ev.kind, slo=ev.name, window=ev.window,
                    value=round(ev.value, 3), target=ev.target,
                    burn=round(ev.burn_short, 3), **ev.attrs,
                )
        return produced

    def status(self) -> list[dict]:
        """Per-spec dashboard rows, in spec order."""
        return [
            self._last.get(spec.name, {
                "name": spec.name, "kind": spec.kind, "value": 0.0,
                "target": spec.target, "violated": False,
                "burn_short": 0.0, "burn_long": 0.0, "burning": False,
            })
            for spec in self.specs
        ]

    def fingerprint_lines(self):
        """Deterministic event material (campaign-style fingerprints)."""
        for ev in self.events:
            yield (
                f"slo:{ev.window}:{ev.kind}:{ev.name}:"
                f"{ev.value:.3f}:{ev.burn_short:.3f}"
            )
