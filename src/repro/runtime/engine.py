"""The progress engine: one event loop for the whole stack.

The paper's components each expose "an event loop function that should
be called continuously" (§III-C/D), and a poller calls them in turn.
``ProgressEngine`` is that poller:

* components implement the :class:`~repro.runtime.pollable.Pollable`
  protocol (``progress(budget) -> work_done``) and :meth:`register`;
* each :meth:`step` polls every registered pollable once, in
  registration order;
* per-pollable :mod:`metrics <repro.runtime.metrics>` (polls, work,
  idle ratio, flush reasons) accrue automatically and can be exported
  into the Prometheus-style registry.

There is no lifecycle: an engine is stepped (:meth:`step`, :meth:`run`,
:meth:`drain`) by whoever owns it.  A pollable's ``progress()`` stays an
ordinary method: calling it directly runs one pass of that component
and involves no engine — only the polls :meth:`step` makes are counted
and supervised.
"""

from __future__ import annotations

from typing import Callable

from .metrics import EngineMetrics, PollableMetrics

__all__ = ["Registration", "ProgressEngine", "EngineError"]


class EngineError(RuntimeError):
    """Engine misuse (re-registration, an exhausted ``run``...)."""


class Registration:
    """One pollable's seat in the engine."""

    __slots__ = ("pollable", "poll_fn", "name", "metrics")

    def __init__(self, pollable, name: str, metrics: PollableMetrics) -> None:
        self.pollable = pollable
        self.poll_fn = pollable.progress
        self.name = name
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registration {self.name}>"


class ProgressEngine:
    """Poller driving registered pollables in registration order."""

    def __init__(self, name: str = "engine", registry=None, metrics_prefix: str = "engine") -> None:
        self.name = name
        self.metrics = EngineMetrics()
        if registry is not None:
            self.metrics.bind_registry(registry, metrics_prefix)
        self.tick = 0
        #: optional EngineSupervisor (repro.runtime.supervisor): receives
        #: poll exceptions (may contain them) and end-of-tick progress
        #: reports for stall detection.  Set by the supervisor itself.
        self.supervisor = None
        self._handles: list[Registration] = []
        self._by_pollable: dict[int, Registration] = {}

    # -- registration ----------------------------------------------------------

    def register(self, pollable, name: str | None = None) -> Registration:
        """Add a pollable under a fresh metrics row; returns its handle."""
        name = name or getattr(pollable, "name", None) or (
            f"{type(pollable).__name__.lower()}#{len(self.metrics.per_pollable)}"
        )
        metrics = PollableMetrics()
        flushes = getattr(pollable, "flush_reasons", None)
        if flushes is not None:
            metrics.flushes = flushes
        return self.seat(Registration(pollable, name, metrics))

    def seat(self, reg: Registration) -> Registration:
        """Seat a registration: a new one, or one kept from
        :meth:`unregister` (quarantine → release), which polls on into
        the same metrics row.  A pollable or a name already seated is
        refused — two seats under one name would share one row."""
        if id(reg.pollable) in self._by_pollable:
            raise EngineError(f"{self.name}: pollable already registered")
        if any(other.name == reg.name for other in self._handles):
            raise EngineError(f"{self.name}: name {reg.name!r} already registered")
        self.metrics.per_pollable[reg.name] = reg.metrics
        self._handles.append(reg)
        self._by_pollable[id(reg.pollable)] = reg
        return reg

    def unregister(self, pollable) -> Registration:
        """Remove a pollable; returns its registration (for :meth:`seat`)."""
        reg = self._by_pollable.pop(id(pollable), None)
        if reg is None:
            raise EngineError(f"{self.name}: pollable not registered")
        self._handles.remove(reg)
        return reg

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
        return work

    def step(self, budget: int | None = None) -> int:
        """One pass: every pollable once, in registration order; returns
        total work done."""
        self.tick += 1
        self.metrics.ticks = self.tick
        total = 0
        # A copy: a supervisor may quarantine a pollable mid-pass.
        for reg in list(self._handles):
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
        quiet = 0
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

    # -- introspection -------------------------------------------------------------------

    def summary(self) -> str:
        return f"{self.name} " + self.metrics.summary()
