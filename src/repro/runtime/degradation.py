"""Graceful degradation under sustained overload (docs/OVERLOAD.md).

The :class:`DegradationManager` watches a scalar pressure signal (the
admission controller's normalized load) and walks a *ladder* of
reversible degradation steps: each sustained excursion above the high
watermark applies the next step, each sustained return below the low
watermark reverts the most recent one.  The standard ladder sheds
observability first (tracing rings), then trades bulk-lane latency for
efficiency (wider Nagle batching), and as a last resort trips the
circuit breaker on the DPU offload path so requests flow through the
host-parse fallback until pressure clears.

Hysteresis is deliberate on both axes: watermarks are split (high >
low) and each transition requires ``step_up_after`` / ``step_down_after``
consecutive qualifying observations, so a pressure signal oscillating
around a threshold cannot flap a step on and off every tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.metrics.registry import gauge

__all__ = [
    "DegradationStep",
    "DegradationEvent",
    "DegradationManager",
    "standard_ladder",
]


@dataclass
class DegradationStep:
    """One reversible rung: ``apply()`` degrades, ``revert()`` restores."""

    name: str
    apply: Callable[[], None]
    revert: Callable[[], None]


@dataclass(frozen=True)
class DegradationEvent:
    tick: int
    action: str  # "degrade" | "recover"
    step: str
    pressure: float


@dataclass
class DegradationManager:
    """Walks the degradation ladder against a pressure signal.

    ``pressure_fn`` supplies the signal when the manager is driven via
    :meth:`on_tick` (e.g. hooked into an
    :class:`~repro.runtime.supervisor.EngineSupervisor`); callers may
    instead push observations directly with :meth:`observe`.
    """

    steps: list[DegradationStep]
    pressure_fn: Callable[[], float] | None = None
    high_watermark: float = 1.0
    low_watermark: float = 0.5
    step_up_after: int = 3
    step_down_after: int = 8
    trace: object | None = None

    level: int = field(default=0, init=False)
    events: list[DegradationEvent] = field(default_factory=list, init=False)
    _above: int = field(default=0, init=False)
    _below: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.low_watermark > self.high_watermark:
            raise ValueError("low watermark must not exceed high watermark")

    def on_tick(self, tick: int) -> None:
        """Supervisor hook: sample ``pressure_fn`` once per engine tick."""
        if self.pressure_fn is not None:
            self.observe(self.pressure_fn(), tick)

    def observe(self, pressure: float, tick: int) -> None:
        if pressure >= self.high_watermark:
            self._above += 1
            self._below = 0
        elif pressure <= self.low_watermark:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0
        if self._above >= self.step_up_after and self.level < len(self.steps):
            self._above = 0
            self._step_up(tick, pressure)
        elif self._below >= self.step_down_after and self.level > 0:
            self._below = 0
            self._step_down(tick, pressure)

    def _step_up(self, tick: int, pressure: float) -> None:
        step = self.steps[self.level]
        step.apply()
        self.level += 1
        self._note(tick, "degrade", step, pressure)

    def _step_down(self, tick: int, pressure: float) -> None:
        self.level -= 1
        step = self.steps[self.level]
        step.revert()
        self._note(tick, "recover", step, pressure)

    def _note(self, tick: int, action: str, step: DegradationStep,
              pressure: float) -> None:
        self.events.append(DegradationEvent(tick, action, step.name, pressure))
        if self.trace is not None:
            self.trace.instant(action, step=step.name, level=self.level,
                               pressure=round(pressure, 3))

    def collect(self):
        """The ladder's level as a metric family (a registry collector)."""
        yield gauge("degradation_level", "current degradation ladder level", self.level)

    def recover_all(self, tick: int, pressure: float = 0.0) -> None:
        """Unwind every applied step (shutdown / test teardown)."""
        while self.level > 0:
            self._step_down(tick, pressure)


def standard_ladder(
    *,
    traced: list | None = None,
    endpoints: list | None = None,
    bulk_batch_ticks: int = 16,
    breaker=None,
    breaker_clock: Callable[[], int] | None = None,
) -> list[DegradationStep]:
    """The three-rung ladder from docs/OVERLOAD.md.

    1. ``shed_tracing`` — detach the trace recorder from every component
       in ``traced`` (their hooks become free); restore on revert.
    2. ``widen_batching`` — let each endpoint in ``endpoints`` hold a
       partial block ``bulk_batch_ticks`` passes (``flush_hold``) so
       bulk responses amortize doorbells; restore its hold on revert.
    3. ``offload_breaker`` — trip ``breaker`` so the DPU front end
       routes through host-parse fallback; revert begins half-open
       probing and the breaker closes itself once probes succeed.

    Rungs whose targets are absent are skipped, so the ladder shrinks
    gracefully in deployments without tracing or a breaker.
    """
    steps: list[DegradationStep] = []
    if traced:
        saved: dict[int, object] = {}

        def shed() -> None:
            for comp in traced:
                saved[id(comp)] = comp.trace
                comp.trace = None

        def unshed() -> None:
            for comp in traced:
                comp.trace = saved.pop(id(comp), None)

        steps.append(DegradationStep("shed_tracing", shed, unshed))
    if endpoints:
        saved_holds: dict[int, int] = {}

        def widen() -> None:
            for ep in endpoints:
                saved_holds[id(ep)] = ep.flush_hold
                ep.flush_hold = bulk_batch_ticks

        def narrow() -> None:
            for ep in endpoints:
                ep.flush_hold = saved_holds.pop(id(ep))

        steps.append(DegradationStep("widen_batching", widen, narrow))
    if breaker is not None:
        clock = breaker_clock if breaker_clock is not None else (lambda: 0)

        def release() -> None:
            # The breaker may have healed itself already (recovery timer
            # + successful probes while the rung was held); only an
            # OPEN breaker needs the nudge into half-open probing.
            if breaker.state == breaker.OPEN:
                breaker.begin_half_open(clock(), reason="pressure cleared")

        steps.append(
            DegradationStep(
                "offload_breaker",
                lambda: breaker.trip(clock(), reason="degradation ladder"),
                release,
            )
        )
    return steps
