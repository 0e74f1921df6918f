"""Supervisor verdicts and fault-injector firings land in the same
trace collector as the request stages (docs/OBSERVABILITY.md), and a
recorded fault log replays into a collector offline."""

from __future__ import annotations

from dataclasses import replace

from repro.core import Response, create_channel
from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import TraceCollector, attach_channel, import_fault_events, stitch

METHOD = 1


def make_channel():
    ch = create_channel(
        client_config=replace(CLIENT_DEFAULTS, verify_checksums=True),
        server_config=replace(SERVER_DEFAULTS, verify_checksums=True),
    )
    ch.server.register(METHOD, lambda req: Response.from_bytes(req.payload_bytes()))
    return ch


def run(ch, iters: int = 40) -> None:
    for _ in range(iters):
        ch.client.progress()
        ch.server.progress()


class TestInjectorEvents:
    def test_fired_faults_recorded_as_global_events(self):
        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        injector = FaultInjector(
            FaultPlan(7, [FaultSpec("drop_op", at_count=1)])
        ).attach(ch)
        injector.trace = collector.recorder("faults")
        done = []
        ch.client.enqueue_bytes(METHOD, b"x", lambda v, f: done.append(f))
        run(ch)
        assert injector.faults_fired == 1
        _, global_events = stitch(collector)
        drops = [ev for ev in global_events if ev.stage == "drop_op"]
        assert len(drops) == 1
        assert drops[0].component == "faults"
        assert drops[0].attrs["category"] == "op"

    def test_untraced_injector_still_logs(self):
        ch = make_channel()
        injector = FaultInjector(
            FaultPlan(7, [FaultSpec("drop_op", at_count=1)])
        ).attach(ch)
        ch.client.enqueue_bytes(METHOD, b"x", lambda v, f: None)
        run(ch, iters=5)
        assert injector.faults_fired == 1  # trace hook is optional


class TestImportFaultEvents:
    def test_live_log_replays(self):
        ch = make_channel()
        injector = FaultInjector(
            FaultPlan(3, [FaultSpec("drop_op", at_count=1)])
        ).attach(ch)
        ch.client.enqueue_bytes(METHOD, b"x", lambda v, f: None)
        run(ch)
        assert injector.faults_fired == 1

        collector = TraceCollector()
        assert import_fault_events(collector, injector.events) == 1
        (event,) = collector.events()
        assert event.stage == "drop_op"
        assert event.component == "faults"
        assert event.attrs["target"]

    def test_order_preserved_by_index_timestamps(self):
        from repro.faults.injector import FaultEvent

        log = [
            FaultEvent(0, "bitflip", "transmit", 1, "qp.client", "byte=3"),
            FaultEvent(1, "drop_op", "op", 4, "qp.server", "wr=9"),
            FaultEvent(2, "qp_error", "op", 5, "qp.server", ""),
        ]
        collector = TraceCollector()
        assert import_fault_events(collector, log, component="campaign") == 3
        events = collector.events()
        assert [ev.stage for ev in events] == ["bitflip", "drop_op", "qp_error"]
        assert events[0].ts < events[1].ts < events[2].ts
        assert events[1].attrs == {
            "category": "op", "count": 4, "target": "qp.server", "detail": "wr=9",
        }


class TestSupervisorEvents:
    def test_contained_fault_emits_trace_instant(self):
        from repro.runtime import EngineSupervisor, ProgressEngine

        collector = TraceCollector()
        engine = ProgressEngine()

        class Flaky:
            def __init__(self):
                self.polls = 0

            def progress(self, budget=None) -> int:
                self.polls += 1
                if self.polls == 2:
                    raise RuntimeError("injected")
                return 0

        engine.register(Flaky(), name="flaky")
        supervisor = EngineSupervisor(
            engine, fault_types=(RuntimeError,),
            trace=collector.recorder("supervisor"),
        )
        for _ in range(3):
            engine.step()
        assert supervisor.faults_contained == 1
        _, global_events = stitch(collector)
        faults = [ev for ev in global_events if ev.stage == "fault"]
        assert len(faults) == 1
        assert faults[0].attrs["pollable"] == "flaky"
        assert "injected" in faults[0].attrs["detail"]

    def test_supervised_channel_recovery_spans_share_collector(self):
        from repro.core.recovery import supervise_channel

        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        recovery, supervisor = supervise_channel(
            ch, trace=collector.recorder("recovery")
        )
        assert recovery.trace is supervisor.trace
        recovery.reset(reason="manual")
        _, global_events = stitch(collector)
        spans = [ev for ev in global_events if ev.stage == "recovery_reset"]
        assert spans and spans[0].attrs["reason"] == "manual"
