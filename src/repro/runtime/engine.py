"""The progress engine: one pluggable event loop for the whole stack.

The paper's components each expose "an event loop function that should
be called continuously" (§III-C/D).  Before this module, every layer
hand-rolled the loop that calls it — endpoints, xRPC servers, the DPU
front end, the simulator.  ``ProgressEngine`` is the single reactor they
all register with instead:

* components implement the :class:`~repro.runtime.pollable.Pollable`
  protocol (``progress(budget) -> work_done``) and :meth:`register`;
* a pluggable :mod:`scheduling <repro.runtime.scheduling>` policy orders
  each pass (round-robin, weighted/priority, adaptive idle backoff);
* per-pollable :mod:`metrics <repro.runtime.metrics>` (polls, work,
  idle ratio, flush reasons) accrue automatically and can be exported
  into the Prometheus-style registry.

Lifecycle: ``start()`` → ``drain()`` → ``stop()``.  The engine is also
fully usable *without* starting it — :meth:`step` performs exactly one
deterministic scheduling pass (what the simulator and the interleaving
tests need).  A pollable's ``progress()`` stays an ordinary method:
calling it directly runs one pass of that component and involves no
engine — only the polls :meth:`step` makes are counted, scheduled and
supervised.  Threaded operation reuses
:class:`~repro.core.executor.WorkerPool`.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable

from .metrics import EngineMetrics
from .pollable import resolve_poll_fn
from .scheduling import SchedulingPolicy, make_scheduler

__all__ = ["EngineState", "Registration", "ProgressEngine", "EngineError"]


class EngineError(RuntimeError):
    """Engine misuse (stepping a stopped engine, re-registration...)."""


class EngineState(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"


class Registration:
    """One pollable's seat in the engine."""

    __slots__ = ("pollable", "poll_fn", "name", "weight", "priority", "index", "metrics")

    def __init__(self, pollable, poll_fn, name, weight, priority, index, metrics) -> None:
        self.pollable = pollable
        self.poll_fn = poll_fn
        self.name = name
        self.weight = weight
        self.priority = priority
        self.index = index
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registration {self.name} w={self.weight} p={self.priority}>"


class ProgressEngine:
    """Reactor driving registered pollables under a scheduling policy."""

    def __init__(
        self,
        scheduler: SchedulingPolicy | str | None = "round_robin",
        name: str = "engine",
        registry=None,
        metrics_prefix: str = "engine",
    ) -> None:
        self.name = name
        self.scheduler = make_scheduler(scheduler)
        self.metrics = EngineMetrics()
        if registry is not None:
            self.metrics.bind_registry(registry, metrics_prefix)
        self.state = EngineState.NEW
        self.tick = 0
        #: optional EngineSupervisor (repro.runtime.supervisor): receives
        #: poll exceptions (may contain them) and end-of-tick progress
        #: reports for stall detection.  Set by the supervisor itself.
        self.supervisor = None
        self._handles: list[Registration] = []
        self._by_pollable: dict[int, Registration] = {}
        self._index = 0
        self._stop_event = threading.Event()
        self._pool = None
        self._owns_pool = False

    # -- registration ----------------------------------------------------------

    def register(
        self,
        pollable,
        name: str | None = None,
        weight: int = 1,
        priority: int = 0,
    ) -> Registration:
        """Add a pollable; returns its registration handle."""
        if id(pollable) in self._by_pollable:
            raise EngineError(f"{self.name}: pollable already registered")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        poll_fn = resolve_poll_fn(pollable)
        name = name or getattr(pollable, "name", None) or (
            f"{type(pollable).__name__.lower()}#{self._index}"
        )
        metrics = self.metrics.track(
            name, shared_flushes=getattr(pollable, "flush_reasons", None)
        )
        reg = Registration(pollable, poll_fn, name, weight, priority, self._index, metrics)
        self._index += 1
        self._handles.append(reg)
        self._by_pollable[id(pollable)] = reg
        return reg

    def unregister(self, pollable) -> None:
        reg = self._by_pollable.pop(id(pollable), None)
        if reg is None:
            raise EngineError(f"{self.name}: pollable not registered")
        self._handles.remove(reg)

    @property
    def registrations(self) -> list[Registration]:
        return list(self._handles)

    # -- the loop ------------------------------------------------------------------

    def _poll(self, reg: Registration, budget: int | None) -> int:
        try:
            work = reg.poll_fn(budget)
        except Exception as exc:
            # A supervisor may contain the fault (recovery/quarantine);
            # unsupervised engines keep the old fail-fast behavior.
            if self.supervisor is not None and self.supervisor.on_poll_error(reg, exc):
                work = 0
            else:
                raise
        work = int(work or 0)
        reg.metrics.record(work)
        self.scheduler.observe(reg, work)
        return work

    def step(self, budget: int | None = None) -> int:
        """One deterministic scheduling pass; returns total work done."""
        if self.state is EngineState.STOPPED:
            raise EngineError(f"{self.name}: stepped after stop()")
        self.tick += 1
        self.metrics.ticks = self.tick
        total = 0
        for reg in self.scheduler.plan(self._handles, self.tick):
            total += self._poll(reg, budget)
        if self.supervisor is not None:
            self.supervisor.after_tick(self.tick)
        self.metrics.sync()
        return total

    def run(
        self,
        max_iters: int = 100_000,
        until: Callable[[], bool] | None = None,
        budget: int | None = None,
    ) -> int:
        """Step repeatedly until ``until()`` is true (or ``max_iters``
        passes elapse); returns the total work done."""
        total = 0
        for _ in range(max_iters):
            if until is not None and until():
                return total
            total += self.step(budget)
        if until is not None:
            raise EngineError(f"{self.name}: run() exceeded {max_iters} iterations")
        return total

    # -- lifecycle ---------------------------------------------------------------------

    def start(self, threaded: bool = False, executor=None, poll_interval: float = 0.0):
        """Enter RUNNING.  With ``threaded=True`` the loop runs on a
        :class:`~repro.core.executor.WorkerPool` (or any submitted-to
        ``executor``) until :meth:`stop`."""
        if self.state is EngineState.STOPPED:
            raise EngineError(f"{self.name}: cannot restart a stopped engine")
        self.state = EngineState.RUNNING
        if threaded:
            self._stop_event.clear()
            if executor is None:
                from repro.core.executor import WorkerPool

                executor = WorkerPool(workers=1, name=f"{self.name}-loop")
                self._owns_pool = True
            self._pool = executor

            def loop() -> None:
                while not self._stop_event.is_set():
                    self.step()
                    if poll_interval:
                        time.sleep(poll_interval)

            executor(loop)
        return self

    def _flush_all(self, reason: str) -> None:
        """Force-seal open batches on every pollable that can flush, so a
        drain is not held hostage by a Nagle deadline.  A pollable that
        records ``flush_reasons`` is told why; any other ``flush`` (a
        fabric draining its wire) takes no reason."""
        for reg in list(self._handles):
            flush = getattr(reg.pollable, "flush", None)
            if not callable(flush):
                continue
            if hasattr(reg.pollable, "flush_reasons"):
                flush(reason)
            else:
                flush()

    def drain(self, max_iters: int = 100_000, quiet_passes: int = 2) -> bool:
        """Step until every pollable is quiet: no work done and nothing
        ``pending()`` for ``quiet_passes`` consecutive passes.  Open
        partial batches are force-flushed each pass (deadline-based flush
        policies would otherwise stall the drain).  Returns whether the
        engine actually went quiet within ``max_iters``."""
        previous = self.state
        self.state = EngineState.DRAINING
        quiet = 0
        try:
            for _ in range(max_iters):
                self._flush_all("drain")
                work = self.step()
                pending = any(
                    getattr(reg.pollable, "pending", lambda: False)()
                    for reg in self._handles
                )
                quiet = quiet + 1 if (work == 0 and not pending) else 0
                if quiet >= quiet_passes:
                    return True
            return False
        finally:
            if previous is not EngineState.STOPPED:
                self.state = previous

    def stop(self) -> None:
        """Stop the loop (joining the thread in threaded mode) and
        refuse further stepping.  Idempotent."""
        if self.state is EngineState.STOPPED:
            return
        self._stop_event.set()
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown()
            self._pool = None
            self._owns_pool = False
        self.state = EngineState.STOPPED
        self.metrics.sync()

    # -- introspection -------------------------------------------------------------------

    def summary(self) -> str:
        return f"{self.name} [{self.state.value}] " + self.metrics.summary()
