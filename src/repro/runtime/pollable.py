"""The ``Pollable`` protocol — the unit the progress engine drives.

The paper's datapath is event-loop driven: every component exposes "an
event loop function that should be called continuously" (§III-C/D).
This module names that function.  A pollable is anything with::

    progress(budget=None) -> work_done

where ``budget`` optionally caps how much work one call may do (e.g. how
many completion-queue events to absorb) and the return value counts the
work items actually processed — the engine's scheduling policies feed on
that count to detect idleness.

Two optional extensions refine engine behavior without being required:

* ``pending() -> bool`` — true while the component still holds queued
  work (used by :meth:`ProgressEngine.drain` to know when the world has
  gone quiet);
* ``flush_reasons`` — a ``dict[str, int]`` of flush-policy decisions the
  component records; the engine surfaces it through its metrics, and a
  draining engine calls such a component's ``flush(reason)``.

What the engine polls is the method itself: :func:`resolve_poll_fn`
hands back the bound ``progress`` (or the historical ``poll``), adapted
only when it takes no budget.
"""

from __future__ import annotations

import inspect
from typing import Callable, Protocol, runtime_checkable

__all__ = ["Pollable", "FnPollable", "resolve_poll_fn"]


@runtime_checkable
class Pollable(Protocol):
    """Anything the engine can drive."""

    def progress(self, budget: int | None = None) -> int: ...


class FnPollable:
    """Adapt a plain callable into a pollable (handy in tests and for
    one-off maintenance chores hung off an engine)."""

    def __init__(self, fn: Callable[..., int | None], name: str | None = None) -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "fn")

    def progress(self, budget: int | None = None) -> int:
        return int(self._fn(budget) or 0) if _accepts_budget(self._fn) else int(self._fn() or 0)


def _accepts_budget(fn: Callable) -> bool:
    """Whether ``fn`` can be called as ``fn(budget)``."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL):
            return True
        if p.kind is p.VAR_KEYWORD or p.name == "budget":
            return True
    return False


def resolve_poll_fn(obj: object) -> Callable[[int | None], int]:
    """Return a ``(budget) -> work`` callable for ``obj``.

    ``progress`` is preferred over ``poll``.  The bound method is
    returned as it is; one that takes no ``budget`` is wrapped so the
    result always tolerates the argument.
    """
    for attr in ("progress", "poll"):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn if _accepts_budget(fn) else (lambda budget=None: fn())
    raise TypeError(f"{type(obj).__name__} is not pollable: no progress()/poll() method")
