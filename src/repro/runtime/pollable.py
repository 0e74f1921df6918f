"""The ``Pollable`` protocol — the unit the progress engine drives.

The paper's datapath is event-loop driven: every component exposes "an
event loop function that should be called continuously" (§III-C/D).
This module names that function.  A pollable is anything with::

    progress(budget=None) -> work_done

where ``budget`` optionally caps how much work one call may do (e.g. how
many completion-queue events to absorb) and the return value counts the
work items actually processed — the engine's metrics count a poll that
returns 0 as idle.  The engine polls the bound ``progress`` method
itself.

Two optional extensions refine engine behavior without being required:

* ``pending() -> bool`` — true while the component still holds queued
  work (used by :meth:`ProgressEngine.drain` to know when the world has
  gone quiet);
* ``flush_reasons`` — a ``dict[str, int]`` of block seals by reason the
  component records; the engine surfaces it through its metrics, and a
  draining engine calls such a component's ``flush(reason)``.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

__all__ = ["Pollable", "FnPollable"]


@runtime_checkable
class Pollable(Protocol):
    """Anything the engine can drive."""

    def progress(self, budget: int | None = None) -> int: ...


class FnPollable:
    """Adapt a plain no-argument callable into a pollable (handy in tests
    and for one-off maintenance chores hung off an engine); the budget is
    not passed on."""

    def __init__(self, fn: Callable[[], int | None], name: str | None = None) -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "fn")

    def progress(self, budget: int | None = None) -> int:
        return int(self._fn() or 0)
