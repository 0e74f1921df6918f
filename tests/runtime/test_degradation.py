"""DegradationManager: hysteresis, the standard ladder, breaker rung."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import Response, create_channel
from repro.metrics import MetricsRegistry
from repro.obs import TraceCollector, attach_channel
from repro.runtime.degradation import (
    DegradationManager,
    DegradationStep,
    standard_ladder,
)
from repro.runtime.overload import CircuitBreaker


def make_recording_steps(log):
    def step(name):
        return DegradationStep(
            name, lambda: log.append(("apply", name)),
            lambda: log.append(("revert", name)),
        )

    return [step("a"), step("b")]


class TestHysteresis:
    def test_steps_up_after_sustained_pressure(self):
        log = []
        mgr = DegradationManager(make_recording_steps(log), step_up_after=3)
        for tick in range(2):
            mgr.observe(1.5, tick)
        assert mgr.level == 0  # not sustained yet
        mgr.observe(1.5, 2)
        assert mgr.level == 1
        assert log == [("apply", "a")]

    def test_oscillation_does_not_flap(self):
        log = []
        mgr = DegradationManager(
            make_recording_steps(log), step_up_after=3, step_down_after=3
        )
        # Alternating above/below resets both streaks every tick.
        for tick in range(50):
            mgr.observe(1.5 if tick % 2 else 0.1, tick)
        assert mgr.level == 0
        assert log == []

    def test_steps_down_after_sustained_calm(self):
        log = []
        mgr = DegradationManager(
            make_recording_steps(log), step_up_after=1, step_down_after=4
        )
        mgr.observe(2.0, 0)
        mgr.observe(2.0, 1)
        assert mgr.level == 2
        for tick in range(2, 6):
            mgr.observe(0.1, tick)
        assert mgr.level == 1
        assert log[-1] == ("revert", "b")

    def test_mid_band_pressure_holds_level(self):
        mgr = DegradationManager(
            make_recording_steps([]), high_watermark=1.0, low_watermark=0.5,
            step_up_after=1, step_down_after=1,
        )
        mgr.observe(1.2, 0)
        assert mgr.level == 1
        for tick in range(1, 20):
            mgr.observe(0.75, tick)  # between watermarks: no movement
        assert mgr.level == 1

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            DegradationManager([], high_watermark=0.4, low_watermark=0.5)

    def test_events_and_gauge(self):
        registry = MetricsRegistry()
        mgr = DegradationManager(
            make_recording_steps([]), step_up_after=1, metrics=registry
        )
        mgr.observe(2.0, 7)
        assert mgr.events[0].tick == 7
        assert mgr.events[0].action == "degrade"
        assert mgr.events[0].step == "a"
        rendered = registry.expose()
        assert "degradation_level 1" in rendered

    def test_recover_all_unwinds(self):
        log = []
        mgr = DegradationManager(make_recording_steps(log), step_up_after=1)
        mgr.observe(2.0, 0)
        mgr.observe(2.0, 1)
        mgr.recover_all(tick=9)
        assert mgr.level == 0
        assert [a for a, _ in log] == ["apply", "apply", "revert", "revert"]

    def test_on_tick_uses_pressure_fn(self):
        values = iter([2.0, 2.0, 2.0])
        mgr = DegradationManager(
            make_recording_steps([]), pressure_fn=lambda: next(values),
            step_up_after=3,
        )
        for tick in range(3):
            mgr.on_tick(tick)
        assert mgr.level == 1


class FakeTraced:
    def __init__(self):
        self.trace = object()


class FakeEndpoint:
    def __init__(self):
        self.flush_hold = 2


class TestStandardLadder:
    def test_shed_tracing_rung(self):
        comp = FakeTraced()
        original = comp.trace
        steps = standard_ladder(traced=[comp])
        assert [s.name for s in steps] == ["shed_tracing"]
        steps[0].apply()
        assert comp.trace is None
        steps[0].revert()
        assert comp.trace is original

    def test_widen_batching_rung(self):
        ep = FakeEndpoint()
        steps = standard_ladder(endpoints=[ep], bulk_batch_ticks=32)
        steps[0].apply()
        assert ep.flush_hold == 32
        steps[0].revert()
        assert ep.flush_hold == 2

    def test_breaker_rung_trips_and_half_opens(self):
        breaker = CircuitBreaker()
        ticks = [100]
        steps = standard_ladder(breaker=breaker, breaker_clock=lambda: ticks[0])
        steps[0].apply()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.transitions[-1] == (100, "open", "degradation ladder")
        ticks[0] = 150
        steps[0].revert()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.transitions[-1] == (150, "half_open", "pressure cleared")

    def test_breaker_rung_leaves_closed_breaker_alone(self):
        breaker = CircuitBreaker(recovery_ticks=1, probe_goal=1)
        steps = standard_ladder(breaker=breaker, breaker_clock=lambda: 0)
        steps[0].apply()
        # The breaker healed itself while the rung was held.
        assert breaker.allow(10)
        breaker.record_success(11)
        assert breaker.state == CircuitBreaker.CLOSED
        steps[0].revert()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_absent_targets_skip_rungs(self):
        assert standard_ladder() == []
        steps = standard_ladder(
            traced=[FakeTraced()], endpoints=[FakeEndpoint()],
            breaker=CircuitBreaker(),
        )
        assert [s.name for s in steps] == [
            "shed_tracing", "widen_batching", "offload_breaker",
        ]

    def test_a_ladder_walked_mid_traffic_answers_every_request_once(self):
        """Both rungs that touch an endpoint, on a live traced one: the
        recorder goes and comes back, and the hold widens and narrows,
        while blocks with traced and untraced messages are open."""
        ch = create_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        attach_channel(TraceCollector(), ch, stream="t")
        ep = ch.client
        mgr = DegradationManager(
            standard_ladder(traced=[ep], endpoints=[ep], bulk_batch_ticks=4),
            step_up_after=1, step_down_after=1,
        )
        answers: Counter = Counter()
        sent = 0

        def enqueue(n: int) -> None:
            nonlocal sent
            for _ in range(n):
                ep.enqueue_bytes(1, sent.to_bytes(4, "big"),
                                 lambda v, f: answers.update([int.from_bytes(v, "big")]))
                sent += 1

        for tick in range(60):
            enqueue(2)
            mgr.observe(2.0 if tick % 12 < 6 else 0.0, tick)
            enqueue(1)
            ch.engine.step()
        assert [e.action for e in mgr.events[:4]] == [
            "degrade", "degrade", "recover", "recover"]
        assert ch.engine.drain(max_iters=200)
        assert answers == Counter(range(sent))

    def test_full_ladder_walk(self):
        comp, ep = FakeTraced(), FakeEndpoint()
        breaker = CircuitBreaker()
        mgr = DegradationManager(
            standard_ladder(traced=[comp], endpoints=[ep], breaker=breaker),
            step_up_after=1, step_down_after=1,
        )
        for tick in range(3):
            mgr.observe(2.0, tick)
        assert mgr.level == 3
        assert comp.trace is None
        assert breaker.state == CircuitBreaker.OPEN
        for tick in range(3, 6):
            mgr.observe(0.0, tick)
        assert mgr.level == 0
        assert comp.trace is not None
        assert breaker.state == CircuitBreaker.HALF_OPEN
