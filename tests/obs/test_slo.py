"""SLO specs, multi-window burn rates, and MAD anomaly detection."""

from __future__ import annotations

import pytest

from repro.obs import AnomalyDetector, SloSpec, SloTracker, Stage, TraceCollector
from repro.obs.slo import (
    KIND_GOODPUT,
    KIND_LANE_P99,
    KIND_MISS_RATE,
    rolling_median,
)


class FakeSnapshot:
    """Just enough TelemetrySnapshot surface for the judgement layer."""

    def __init__(self, window=0, p99=None, goodput=1.0, miss=0.0,
                 gaps=None, counts=None):
        self.window = window
        self._p99 = p99
        self._goodput = goodput
        self._miss = miss
        self.gap_seconds = gaps or {}
        self._counts = counts or {s: 1 for s in self.gap_seconds}
        self.lane_latency_us = (
            {0: {"p99": p99, "count": 1}} if p99 is not None else {}
        )

    def lane_p99_us(self, lane):
        stats = self.lane_latency_us.get(lane)
        return stats["p99"] if stats else 0.0

    def goodput_per_tick(self):
        return self._goodput

    def deadline_miss_rate(self):
        return self._miss

    def stage_count(self, stage):
        return self._counts.get(stage, 0)


class TestSloSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SloSpec("x", "nope", 1.0)
        with pytest.raises(ValueError):
            SloSpec("x", KIND_LANE_P99, 1.0)  # lane required
        with pytest.raises(ValueError):
            SloSpec("x", KIND_GOODPUT, 1.0, budget=0.0)

    def test_goodput_violates_below_target(self):
        spec = SloSpec("floor", KIND_GOODPUT, 1.0)
        assert spec.violated(FakeSnapshot(goodput=0.5))
        assert not spec.violated(FakeSnapshot(goodput=1.5))

    def test_latency_violates_above_target(self):
        spec = SloSpec("p99", KIND_LANE_P99, 100.0, lane=0)
        assert spec.violated(FakeSnapshot(p99=200.0))
        assert not spec.violated(FakeSnapshot(p99=50.0))

    def test_no_lane_traffic_is_not_judged(self):
        spec = SloSpec("p99", KIND_LANE_P99, 100.0, lane=0)
        assert not spec.violated(FakeSnapshot(p99=None))

    def test_miss_rate(self):
        spec = SloSpec("miss", KIND_MISS_RATE, 0.05)
        assert spec.violated(FakeSnapshot(miss=0.2))
        assert not spec.violated(FakeSnapshot(miss=0.01))


class TestBurnRates:
    def make(self, budget=0.25):
        return SloTracker(
            [SloSpec("floor", KIND_GOODPUT, 1.0, budget=budget)],
            short_windows=3, long_windows=6,
        )

    def test_burn_alert_needs_both_horizons(self):
        tracker = self.make()
        # Two violating windows: short burn exceeds 1x quickly, but the
        # long horizon must fill with violations too before it alerts.
        events = tracker.observe(FakeSnapshot(window=0, goodput=0.0))
        assert events == []
        assert tracker.status()[0]["burn_short"] > 1.0  # short horizon already hot
        produced = []
        for w in range(1, 4):
            produced.extend(tracker.observe(FakeSnapshot(window=w, goodput=0.0)))
        assert any(ev.kind == Stage.SLO_BURN for ev in produced)
        assert tracker.status()[0]["burning"]

    def test_recovery_event_on_cooldown(self):
        tracker = self.make()
        for w in range(6):
            tracker.observe(FakeSnapshot(window=w, goodput=0.0))
        assert tracker.status()[0]["burning"]
        produced = []
        for w in range(6, 12):
            produced.extend(tracker.observe(FakeSnapshot(window=w, goodput=2.0)))
        assert any(ev.kind == Stage.SLO_RECOVERED for ev in produced)
        assert not tracker.status()[0]["burning"]
        assert tracker.status()[0]["burn_short"] == 0.0

    def test_one_noisy_window_does_not_page(self):
        tracker = self.make()
        produced = []
        for w in range(12):
            goodput = 0.0 if w == 5 else 2.0
            produced.extend(tracker.observe(FakeSnapshot(window=w, goodput=goodput)))
        assert not any(ev.kind == Stage.SLO_BURN for ev in produced)

    def test_burn_is_violation_rate_over_budget(self):
        tracker = self.make(budget=0.25)
        tracker.observe(FakeSnapshot(window=0, goodput=0.0))
        tracker.observe(FakeSnapshot(window=1, goodput=2.0))
        tracker.observe(FakeSnapshot(window=2, goodput=2.0))
        # 1 violation in 3 short windows / 0.25 budget = 1.33x
        assert tracker.status()[0]["burn_short"] == pytest.approx((1 / 3) / 0.25)

    def test_status_rows_in_spec_order(self):
        tracker = SloTracker([
            SloSpec("a", KIND_GOODPUT, 1.0),
            SloSpec("b", KIND_MISS_RATE, 0.1),
        ])
        rows = tracker.status()
        assert [r["name"] for r in rows] == ["a", "b"]
        tracker.observe(FakeSnapshot(goodput=2.0))
        rows = tracker.status()
        assert rows[0]["value"] == 2.0

    def test_events_recorded_into_trace_stream(self):
        collector = TraceCollector(clock=lambda: 0.0)
        tracker = SloTracker(
            [SloSpec("floor", KIND_GOODPUT, 1.0, budget=0.25)],
            short_windows=2, long_windows=2,
            recorder=collector.recorder("slo"),
        )
        for w in range(3):
            tracker.observe(FakeSnapshot(window=w, goodput=0.0))
        stages = [ev.stage for ev in collector.events()]
        assert Stage.SLO_BURN in stages


class TestAnomalyDetector:
    def test_requires_history(self):
        det = AnomalyDetector(min_history=4)
        snap = FakeSnapshot(gaps={"transmit": 1e-3})
        assert det.observe(snap) == []  # no history yet

    def test_flags_detached_stage(self):
        det = AnomalyDetector(window=8, k=5.0, min_history=4)
        for w in range(6):
            det.observe(FakeSnapshot(window=w, gaps={"transmit": 10e-6}))
        events = det.observe(FakeSnapshot(window=6, gaps={"transmit": 10e-3}))
        assert len(events) == 1
        assert events[0].kind == Stage.ANOMALY
        assert events[0].name == "transmit"
        assert det.anomalies == 1

    def test_constant_history_uses_floor_not_zero_mad(self):
        det = AnomalyDetector(min_history=3, floor=1e-7)
        for w in range(5):
            det.observe(FakeSnapshot(window=w, gaps={"seal": 10e-6}))
        # one quantization step above a perfectly constant history must
        # still page only past k*floor, not at MAD=0
        events = det.observe(FakeSnapshot(window=5, gaps={"seal": 10e-6 + 1e-8}))
        assert events == []

    def test_rolling_median(self):
        assert rolling_median([]) == 0.0
        assert rolling_median([3.0, 1.0, 2.0]) == 2.0
        assert rolling_median([1.0, 2.0, 3.0, 4.0]) == 2.5
