"""Tests for the engine supervisor: stall detection, fault containment,
quarantine/release, and metrics export (docs/FAULTS.md)."""

from __future__ import annotations

import pytest

from repro.core import TransportError
from repro.metrics import MetricsRegistry
from repro.runtime.engine import ProgressEngine
from repro.runtime.supervisor import EngineSupervisor


class FakePollable:
    """A scriptable pollable: yields ``work`` per poll, claims ``pending``
    work, and raises ``exc`` when armed."""

    def __init__(self, name: str = "fake") -> None:
        self.name = name
        self.work = 0
        self._pending = False
        self.exc: BaseException | None = None
        self.polls = 0

    def progress(self, budget: int | None = None) -> int:
        self.polls += 1
        if self.exc is not None:
            raise self.exc
        return self.work

    def pending(self) -> bool:
        return self._pending


def make(stall_ticks=3, max_faults=2, **kwargs):
    engine = ProgressEngine(name="test")
    pollable = FakePollable()
    engine.register(pollable, name="fake")
    supervisor = EngineSupervisor(
        engine, stall_ticks=stall_ticks, max_faults=max_faults, **kwargs
    )
    return engine, pollable, supervisor


class TestConstruction:
    def test_attaches_to_engine(self):
        engine, _, supervisor = make()
        assert engine.supervisor is supervisor

    def test_rejects_bad_stall_ticks(self):
        engine = ProgressEngine(name="t")
        with pytest.raises(ValueError):
            EngineSupervisor(engine, stall_ticks=0)


class TestStallDetection:
    def test_pending_but_parked_fires_on_stall(self):
        stalled = []
        engine, pollable, supervisor = make(
            stall_ticks=3, on_stall=lambda reg: stalled.append(reg.name)
        )
        pollable._pending = True  # claims work, never does any
        for _ in range(4):
            engine.step()
        assert stalled == ["fake"]
        assert supervisor.stalls_detected == 1
        assert supervisor.events[-1].kind == "stall"

    def test_idle_without_pending_is_healthy(self):
        engine, pollable, supervisor = make(stall_ticks=2)
        for _ in range(10):
            engine.step()
        assert supervisor.stalls_detected == 0

    def test_progress_resets_the_stall_clock(self):
        engine, pollable, supervisor = make(stall_ticks=3)
        pollable._pending = True
        for i in range(10):
            pollable.work = i + 1  # strictly growing work counter
            engine.step()
        assert supervisor.stalls_detected == 0

    def test_stall_rearms_after_firing(self):
        engine, pollable, supervisor = make(stall_ticks=2)
        pollable._pending = True
        for _ in range(8):
            engine.step()
        assert supervisor.stalls_detected >= 2  # fired, re-armed, fired again


class TestFaultContainment:
    def test_fault_type_contained_and_counted(self):
        faults = []
        engine, pollable, supervisor = make(
            on_fault=lambda reg, exc: faults.append(type(exc).__name__)
        )
        pollable.exc = TransportError("fake", "boom")
        engine.step()  # does not raise: the supervisor contained it
        assert faults == ["TransportError"]
        assert supervisor.faults_contained == 1

    def test_foreign_exception_propagates(self):
        engine, pollable, supervisor = make()
        pollable.exc = ValueError("not a datapath fault")
        with pytest.raises(ValueError):
            engine.step()
        assert supervisor.faults_contained == 0

    def test_custom_fault_types(self):
        engine, pollable, supervisor = make(fault_types=(KeyError,))
        pollable.exc = KeyError("custom")
        engine.step()
        assert supervisor.faults_contained == 1
        pollable.exc = TransportError("fake", "now foreign")
        with pytest.raises(TransportError):
            engine.step()

    def test_reset_faults_forgives(self):
        engine, pollable, supervisor = make(max_faults=2)
        pollable.exc = TransportError("fake", "x")
        engine.step()
        engine.step()
        supervisor.reset_faults(pollable)
        engine.step()  # would have quarantined without the reset
        assert supervisor.quarantined == []


class TestQuarantine:
    def _exhaust(self, engine, pollable, supervisor):
        pollable.exc = TransportError("fake", "x")
        for _ in range(supervisor.max_faults + 1):
            engine.step()

    def test_exceeding_max_faults_quarantines(self):
        engine, pollable, supervisor = make(max_faults=2)
        self._exhaust(engine, pollable, supervisor)
        assert supervisor.quarantines == 1
        assert [reg.name for reg in supervisor.quarantined] == ["fake"]
        assert engine.registrations == []
        # A quarantined pollable is no longer polled.
        polls = pollable.polls
        engine.step()
        assert pollable.polls == polls

    def test_release_readmits(self):
        """Re-admitted in the kept registration: its metrics row — and the
        scraped ``engine_*`` families — count on, never backwards."""
        registry = MetricsRegistry()
        engine, pollable, supervisor = make(max_faults=1)
        registry.add_collector(engine.metrics.collect)
        pollable.work = 1
        for _ in range(5):
            engine.step()
        self._exhaust(engine, pollable, supervisor)
        row = engine.metrics.per_pollable["fake"]
        before = (row.polls, row.work_items)
        assert before == (7, 5)
        pollable.exc = None
        assert supervisor.release(pollable) is True
        assert supervisor.quarantined == []
        (reg,) = engine.registrations
        assert reg.metrics is row is engine.metrics.per_pollable["fake"]
        polls = pollable.polls
        engine.step()
        assert pollable.polls == polls + 1
        assert (row.polls, row.work_items) == (before[0] + 1, before[1] + 1)
        text = registry.expose()
        assert f'engine_polls_total{{pollable="fake"}} {before[0] + 1}' in text
        assert f'engine_work_items_total{{pollable="fake"}} {before[1] + 1}' in text

    def test_release_unknown_pollable_is_false(self):
        _, _, supervisor = make()
        assert supervisor.release(object()) is False


class TestObservability:
    def test_events_bounded(self):
        engine, pollable, supervisor = make(
            stall_ticks=1, max_faults=10_000, max_events=8
        )
        pollable.exc = TransportError("fake", "x")
        for _ in range(50):
            engine.step()
        assert len(supervisor.events) == 8

    def test_metrics_exported(self):
        metrics = MetricsRegistry()
        engine, pollable, supervisor = make(max_faults=1)
        metrics.add_collector(supervisor.collect)
        pollable.exc = TransportError("fake", "x")
        engine.step()
        engine.step()
        text = metrics.expose()
        assert "engine_supervisor_faults_total 2" in text
        assert "engine_supervisor_quarantines_total 1" in text

    def test_summary(self):
        _, _, supervisor = make()
        assert "supervisor[test]" in supervisor.summary()
