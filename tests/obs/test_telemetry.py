"""The telemetry hub: windowing, open-request lifecycle, gap attribution
through ``RequestTimeline.stage_gaps``, one completion per served call,
and events imported from another process."""

from __future__ import annotations

import pytest

from repro.deploy import build
from repro.metrics import percentile
from repro.obs import (
    Stage,
    TelemetryHub,
    TraceCollector,
    export_events,
    import_events,
    render_dashboard,
    stitch,
)
from repro.obs.telemetry import STALE_WINDOWS
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import make_stub_class


def make_hub(window_ticks=4):
    collector = TraceCollector(clock=lambda: 0.0)
    hub = TelemetryHub(collector, window_ticks=window_ticks)
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
            TelemetryHub(TraceCollector(), window_ticks=0)


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
        stats = snap.lane_latency_us[0]
        assert list(snap.lane_latency_us) == [0]
        assert stats["count"] == 1
        assert stats["p99"] == pytest.approx(100.0)
        assert snap.live_entries == 0

    def test_terminal_with_no_entry_is_not_an_orphan(self):
        # The front's `respond` lands after `response_deliver`, under a
        # second context with the same tid: one request, counted once,
        # and nothing left open.
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
        # allocates nothing until transmit); the late-bound tid stitches
        # the pre-bind events to the server half.
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
        assert {lane: s["count"] for lane, s in snap.lane_latency_us.items()} == {1: 1}
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
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("c")
        ctx = rec.context()
        rec.event(ctx, Stage.ENQUEUE, ts=0.0)  # never completes
        for _ in range(STALE_WINDOWS):
            snap = hub.on_tick()
            assert snap.live_entries == 1
        snap = hub.on_tick()
        assert snap.live_entries == 0

    def test_stage_counts_include_ctxless_events(self):
        collector, hub = make_hub(window_ticks=1)
        rec = collector.recorder("front")
        rec.instant(Stage.SHED, lane=1)
        rec.instant(Stage.SHED, lane=1)
        snap = hub.on_tick()
        assert snap.stage_count(Stage.SHED) == 2

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


def ping(kind, calls):
    """``calls`` PingSmall calls through a traced deployment of
    ``kind``; returns the collector and the one window sealed over
    them."""
    schema, service, servicer = bench_service()
    collector = TraceCollector()
    hub = TelemetryHub(collector, window_ticks=1)
    with build(kind, schema, service, servicer, collector=collector) as deployment:
        stub = make_stub_class(service, schema.factory)(deployment.channel())
        small = WorkloadFactory(schema=schema).small()
        for _ in range(calls):
            stub.PingSmall(small)
        return collector, hub.on_tick()


class TestServedCalls:
    @pytest.mark.parametrize("kind", ["baseline", "offloaded"])
    def test_one_traced_call_is_one_completion(self, kind):
        # A deployment built with a collector traces its channel() too:
        # the client's half of each call (xrpc_send -> xrpc_complete) is
        # the call the serving edge answers, and is not counted again.
        _, snap = ping(kind, 50)
        assert snap.completed == 50
        assert snap.live_entries == 0

    def test_window_gaps_are_the_stage_gaps_of_the_served_timelines(self):
        collector, snap = ping("offloaded", 200)
        served = [tl for tl in stitch(collector)[0] if Stage.RESPOND in tl.stages()]
        assert len(served) == 200
        expected: dict = {}
        for tl in served:
            for _component, stage, seconds in tl.stage_gaps():
                expected[stage] = expected.get(stage, 0.0) + seconds
        assert {Stage.RESPOND, Stage.RESPONSE_EMIT} <= set(expected)
        assert set(snap.gap_seconds) == set(expected)
        for stage, seconds in expected.items():
            assert snap.gap_seconds[stage] == pytest.approx(seconds), stage


class TestCrossProcessSink:
    def test_import_events_streams_in_timestamp_order(self):
        # A child collector's snapshot groups events by ring; the hub
        # reads them at the next seal and attributes them in time order.
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
