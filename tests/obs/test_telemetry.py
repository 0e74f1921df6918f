"""The streaming telemetry hub: windowing, live-entry lifecycle, gap
attribution, sources, and the cross-process sink path."""

from __future__ import annotations

import pytest

from repro.metrics import MetricsRegistry, percentile
from repro.obs import (
    Stage,
    TelemetryHub,
    TraceCollector,
    export_events,
    import_events,
    render_dashboard,
)


def make_hub(window_ticks=4, **kw):
    collector = TraceCollector(clock=lambda: 0.0)
    hub = TelemetryHub(collector, window_ticks=window_ticks, **kw)
    return collector, hub


def drive(hub, ticks):
    snaps = []
    for _ in range(ticks):
        snap = hub.on_tick()
        if snap is not None:
            snaps.append(snap)
    return snaps


class TestExactQuantile:
    """The hub's window quantiles are `repro.metrics.percentile`:
    nearest rank over the window's samples, no interpolation."""

    def test_empty_and_single(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([7.0], 0.5) == 7.0

    def test_interpolates(self):
        # Nearest rank: a quantile is always one of the samples.
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == 0.0
        assert percentile(values, 0.99) == 10.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0


class TestWindowing:
    def test_seals_every_window_ticks(self):
        _, hub = make_hub(window_ticks=4)
        snaps = drive(hub, 12)
        assert len(snaps) == 3
        assert [s.window for s in snaps] == [0, 1, 2]
        assert hub.windows_closed == 3

    def test_listener_fires_per_window(self):
        _, hub = make_hub(window_ticks=2)
        seen = []
        hub.add_listener(lambda snap: seen.append(snap.window))
        drive(hub, 6)
        assert seen == [0, 1, 2]

    def test_window_ticks_validated(self):
        with pytest.raises(ValueError):
            TelemetryHub(window_ticks=0)

    def test_progress_is_a_tick(self):
        # The Pollable adapter: engine passes drive the window cadence.
        _, hub = make_hub(window_ticks=3)
        for _ in range(3):
            assert hub.progress() == 0
        assert hub.windows_closed == 1


class TestRequestFolding:
    def test_complete_request_counts_and_latency(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("edge")
        ctx = rec.context(lane=0)
        ctx.tid = ("s", 1)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.RESPOND, ts=100e-6)
        snap = hub.on_tick()
        assert snap.completed == 1
        assert snap.completed_by_lane == {0: 1}
        stats = snap.lane_latency_us[0]
        assert stats["count"] == 1
        assert stats["p99"] == pytest.approx(100.0)
        assert snap.live_entries == 0

    def test_terminal_with_no_entry_is_not_an_orphan(self):
        # The front's `respond` lands after `response_deliver` already
        # completed (and popped) the entry; it must not park a one-event
        # orphan in the live tables.
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("edge")
        ctx = rec.context()
        ctx.tid = ("s", 2)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.RESPONSE_DELIVER, ts=50e-6)
        late = rec.context()
        late.tid = ("s", 2)
        rec.event(late, Stage.RESPOND, ts=60e-6)
        snap = hub.on_tick()
        assert snap.completed == 1
        assert snap.live_entries == 0

    def test_identity_entry_promotes_on_tid_bind(self):
        # enqueue/seal happen before transmit binds the id (§IV-D
        # allocates nothing until transmit); the entry must follow the
        # context from identity keying to tid keying and merge halves.
        collector, hub = make_hub(window_ticks=1)
        client = collector.recorder("client")
        server = collector.recorder("server")
        ctx = client.context(lane=1)
        client.event(ctx, Stage.ENQUEUE, ts=0.0)  # tid still None
        ctx.tid = ("rdma", 1)                     # transmit binds it
        client.event(ctx, Stage.TRANSMIT, ts=10e-6)
        sctx = server.context()
        sctx.tid = ("rdma", 1)
        server.event(sctx, Stage.DELIVER, ts=20e-6)
        server.event(sctx, Stage.RESPOND, ts=40e-6)
        snap = hub.on_tick()
        assert snap.completed == 1
        assert snap.completed_by_lane == {1: 1}
        # latency spans from the pre-bind enqueue, not from deliver
        assert snap.lane_latency_us[1]["p99"] == pytest.approx(40.0)
        assert snap.live_entries == 0

    def test_gap_attribution_matches_stage_gaps_semantics(self):
        # Untimed stages contribute the gap since the previous end;
        # timed stages contribute their own duration.
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("c")
        ctx = rec.context()
        ctx.tid = ("s", 3)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.DISPATCH, ts=10e-6, dur=5e-6)
        rec.event(ctx, Stage.RESPOND, ts=30e-6)
        snap = hub.on_tick()
        assert snap.gap_seconds[Stage.DISPATCH] == pytest.approx(5e-6)
        # respond gap = 30 − (10+5) = 15µs
        assert snap.gap_seconds[Stage.RESPOND] == pytest.approx(15e-6)
        assert sum(snap.gap_share.values()) == pytest.approx(1.0)

    def test_gap_share_delta_tracks_previous_window(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("c")

        def one_request(n, ingress_to_respond):
            ctx = rec.context()
            ctx.tid = ("s", n)
            rec.event(ctx, Stage.INGRESS, ts=0.0)
            rec.event(ctx, Stage.RESPOND, ts=ingress_to_respond)

        one_request(10, 10e-6)
        first = hub.on_tick()
        assert first.gap_share[Stage.RESPOND] == pytest.approx(1.0)
        one_request(11, 10e-6)
        second = hub.on_tick()
        # share unchanged between windows -> delta 0
        assert second.gap_share_delta[Stage.RESPOND] == pytest.approx(0.0)

    def test_stale_entries_evicted(self):
        collector, hub = make_hub(window_ticks=1, stale_windows=2)
        rec = collector.recorder("c")
        ctx = rec.context()
        rec.event(ctx, Stage.ENQUEUE, ts=0.0)  # never completes
        snap = hub.on_tick()
        assert snap.live_entries == 1
        for _ in range(3):
            snap = hub.on_tick()
        assert snap.live_entries == 0

    def test_stage_counts_include_ctxless_events(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("front")
        rec.instant(Stage.SHED, lane=1)
        rec.instant(Stage.SHED, lane=1)
        snap = hub.on_tick()
        assert snap.stage_count(Stage.SHED) == 2
        assert snap.component_stage_counts[("front", Stage.SHED)] == 2

    def test_deadline_miss_rate(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("c")
        rec.instant(Stage.SHED)
        ctx = rec.context()
        ctx.tid = ("s", 1)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.RESPOND, ts=1e-6)
        snap = hub.on_tick()
        assert snap.deadline_miss_rate() == pytest.approx(0.5)


class TestSourcesAndGauges:
    def test_source_deltas_per_window(self):
        _, hub = make_hub(window_ticks=1)
        counter = {"polls": 0}
        hub.add_source("engine", lambda: dict(counter))
        counter["polls"] = 5
        first = hub.on_tick()
        assert first.source_deltas["engine"] == {"polls": 5}
        counter["polls"] = 7
        second = hub.on_tick()
        assert second.source_deltas["engine"] == {"polls": 2}
        assert second.source_totals["engine"] == {"polls": 7}

    def test_bound_gauges_update_on_seal(self):
        collector, hub = make_hub(window_ticks=1)
        registry = MetricsRegistry()
        registry.add_collector(hub.collect)
        rec = collector.recorder("c")
        ctx = rec.context(lane=0)
        ctx.tid = ("s", 1)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.RESPOND, ts=2e-6)
        hub.on_tick()
        text = registry.expose()
        assert "telemetry_windows_closed 1" in text
        assert "telemetry_goodput_per_tick 1" in text
        assert 'telemetry_lane_p99_us{lane="0"}' in text


class TestCrossProcessSink:
    def test_import_events_streams_in_timestamp_order(self):
        # A child collector's snapshot groups events by ring; the
        # importer must offer them to the parent hub in causal order or
        # the streaming gap attribution sees components out of sequence.
        child = TraceCollector(clock=lambda: 0.0)
        a = child.recorder("dpu")
        b = child.recorder("host")
        ctx = a.context()
        ctx.tid = ("s", 1)
        a.event(ctx, Stage.INGRESS, ts=0.0)
        b.event(ctx, Stage.DISPATCH, ts=10e-6, dur=5e-6)
        a.event(ctx, Stage.RESPOND, ts=30e-6)
        snapshot = export_events(child)

        parent = TraceCollector(clock=lambda: 0.0)
        hub = TelemetryHub(parent, window_ticks=1)
        import_events(parent, snapshot)
        snap = hub.on_tick()
        assert snap.completed == 1
        assert snap.gap_seconds[Stage.RESPOND] == pytest.approx(15e-6)


class TestDashboard:
    def test_renders_without_windows(self):
        _, hub = make_hub()
        assert "no windows sealed" in render_dashboard(hub)

    def test_renders_lane_and_stage_tables(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("c")
        ctx = rec.context(lane=0)
        ctx.tid = ("s", 1)
        rec.event(ctx, Stage.INGRESS, ts=0.0)
        rec.event(ctx, Stage.RESPOND, ts=5e-6)
        hub.on_tick()
        frame = render_dashboard(hub, lane_names={0: "latency"})
        assert "goodput" in frame
        assert "latency" in frame
        assert Stage.RESPOND in frame
