"""Engine supervision: stall detection, fault containment, quarantine.

The progress engine drives every layer's event loop, which makes it the
natural place to notice that a layer has *stopped making progress* — the
failure mode injected faults produce (lost completions, dead peers) that
no exception ever announces.  The supervisor watches each registered
pollable across ticks:

* **stall**: the pollable reports ``pending()`` work but has done zero
  work for ``stall_ticks`` consecutive ticks → the ``on_stall`` action
  fires (typically :meth:`repro.core.recovery.ChannelRecovery.reset`).
* **fault**: the pollable's poll raised one of ``fault_types``
  (:class:`~repro.core.endpoint.TransportError` by default) → the fault
  is contained (the tick continues), counted, and ``on_fault`` fires;
  a pollable exceeding ``max_faults`` is **quarantined** — unregistered
  from the engine so one broken connection cannot wedge the loop that
  serves the healthy ones.

The supervisor never acts on its own authority beyond quarantine: the
recovery policy is whatever callable the owner wires in.  Everything it
observes is counted (``stalls_detected`` …); :meth:`EngineSupervisor.collect`
is the registry collector that reads the counts.

This module keeps the runtime package's no-upward-imports rule:
``repro.core`` types are resolved lazily, only when defaults are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.metrics.registry import counter

from .engine import ProgressEngine, Registration

__all__ = ["SupervisorEvent", "EngineSupervisor"]


@dataclass(frozen=True)
class SupervisorEvent:
    """One thing the supervisor noticed (kept in a bounded history)."""

    tick: int
    kind: str  # "stall" | "fault" | "quarantine"
    pollable: str
    detail: str = ""


@dataclass
class _Watch:
    """Per-pollable progress bookkeeping."""

    last_work_items: int = 0
    last_progress_tick: int = 0
    faults: int = 0
    stalls: int = 0
    meta: dict = field(default_factory=dict)


class EngineSupervisor:
    """Watchdog attached to one :class:`ProgressEngine`.

    Attaching (construction) sets ``engine.supervisor``; the engine then
    reports per-tick progress via :meth:`after_tick` and poll exceptions
    via :meth:`on_poll_error`.
    """

    def __init__(
        self,
        engine: ProgressEngine,
        stall_ticks: int = 50,
        max_faults: int = 3,
        on_stall: Callable[[Registration], None] | None = None,
        on_fault: Callable[[Registration, BaseException], None] | None = None,
        fault_types: tuple[type, ...] | None = None,
        max_events: int = 256,
        trace=None,
    ) -> None:
        if stall_ticks < 1:
            raise ValueError("stall_ticks must be >= 1")
        #: StageRecorder (repro.obs): supervisor verdicts land in the same
        #: collector as the request stages, so a stall/quarantine shows up
        #: *between* the request timelines it interrupted.
        self.trace = trace
        self.engine = engine
        self.stall_ticks = stall_ticks
        self.max_faults = max_faults
        self.on_stall = on_stall
        self.on_fault = on_fault
        self._fault_types = fault_types
        self._watches: dict[int, _Watch] = {}
        self._max_events = max_events
        self.events: list[SupervisorEvent] = []
        self.quarantined: list[Registration] = []
        # -- counters ---------------------------------------------------------
        self.stalls_detected = 0
        self.faults_contained = 0
        self.quarantines = 0
        engine.supervisor = self

    # -- engine hooks ------------------------------------------------------------

    def fault_types(self) -> tuple[type, ...]:
        if self._fault_types is None:
            from repro.core.endpoint import TransportError

            self._fault_types = (TransportError,)
        return self._fault_types

    def on_poll_error(self, reg: Registration, exc: BaseException) -> bool:
        """Called by the engine when a poll raises.  Returns True when the
        fault is contained (the engine finishes the tick); False lets the
        exception propagate unchanged."""
        if not isinstance(exc, self.fault_types()):
            return False
        watch = self._watch(reg)
        watch.faults += 1
        self.faults_contained += 1
        self._record(reg, "fault", repr(exc))
        if self.on_fault is not None:
            self.on_fault(reg, exc)
        if watch.faults > self.max_faults:
            self.quarantine(reg.pollable, reason=f"{watch.faults} faults")
        return True

    def after_tick(self, tick: int) -> None:
        """Called by the engine at the end of every :meth:`step`; scans
        for watched pollables that are pending-but-parked."""
        for reg in self.engine.registrations:
            watch = self._watch(reg)
            work_total = reg.metrics.work_items
            if work_total > watch.last_work_items:
                watch.last_work_items = work_total
                watch.last_progress_tick = tick
                continue
            pending = getattr(reg.pollable, "pending", None)
            if pending is None or not pending():
                # Idle without pending work is healthy quiescence.
                watch.last_progress_tick = tick
                continue
            if tick - watch.last_progress_tick >= self.stall_ticks:
                watch.stalls += 1
                self.stalls_detected += 1
                self._record(reg, "stall", f"no progress for {self.stall_ticks} ticks")
                # Re-arm before acting so a recovery that itself takes
                # ticks does not immediately re-fire.
                watch.last_progress_tick = tick
                if self.on_stall is not None:
                    self.on_stall(reg)

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, pollable, reason: str = "") -> None:
        """Unregister a pollable so the rest of the engine keeps running;
        its registration is retained for :meth:`release`."""
        reg = self.engine._by_pollable.get(id(pollable))
        if reg is None:
            return
        self.engine.unregister(pollable)
        self._watch(reg).meta["registration"] = reg
        self.quarantined.append(reg)
        self.quarantines += 1
        self._record(reg, "quarantine", reason)

    def reset_faults(self, pollable) -> None:
        """Forgive accumulated faults (call after an external repair so
        the next incident starts a fresh count toward quarantine)."""
        reg = self.engine._by_pollable.get(id(pollable))
        if reg is not None:
            self._watch(reg).faults = 0

    def release(self, pollable) -> bool:
        """Re-admit a quarantined pollable (after external repair) in its
        kept registration, so its metrics row counts on; returns whether
        it was found."""
        for reg in self.quarantined:
            if reg.pollable is pollable:
                self.engine.seat(reg)
                self.quarantined.remove(reg)
                self._watches.pop(id(reg), None)
                self._watch(reg).faults = 0
                return True
        return False

    # -- internals ---------------------------------------------------------------

    def _watch(self, reg: Registration) -> _Watch:
        watch = self._watches.get(id(reg))
        if watch is None:
            watch = _Watch(
                last_work_items=reg.metrics.work_items,
                last_progress_tick=self.engine.tick,
            )
            self._watches[id(reg)] = watch
        return watch

    def _record(self, reg: Registration, kind: str, detail: str) -> None:
        self.events.append(SupervisorEvent(self.engine.tick, kind, reg.name, detail))
        if len(self.events) > self._max_events:
            del self.events[: len(self.events) - self._max_events]
        if self.trace is not None:
            self.trace.instant(kind, pollable=reg.name, detail=detail,
                               tick=self.engine.tick)

    def collect(self):
        """The supervisor's counts as metric families (a registry collector)."""
        yield counter("engine_supervisor_stalls_total", "stalls detected",
                      self.stalls_detected)
        yield counter("engine_supervisor_faults_total", "poll faults contained",
                      self.faults_contained)
        yield counter("engine_supervisor_quarantines_total", "pollables quarantined",
                      self.quarantines)

    def summary(self) -> str:
        return (
            f"supervisor[{self.engine.name}]: stalls={self.stalls_detected} "
            f"faults={self.faults_contained} quarantined={len(self.quarantined)}"
        )
