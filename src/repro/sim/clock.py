"""A minimal discrete-event simulation engine."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["EventQueue"]


class EventQueue:
    """Time-ordered event queue with a monotonically advancing clock.

    Times are seconds (float).  Ties break in scheduling order, which
    keeps runs deterministic.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn))

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute ``time``."""
        self.schedule(time - self.now, fn)

    def step(self) -> bool:
        """Execute the next event; False when the queue is empty."""
        if not self._heap:
            return False
        time, _, fn = heapq.heappop(self._heap)
        self.now = time
        fn()
        return True

    def run_until(self, end_time: float) -> int:
        """Run events with time <= end_time, at most 50 million; returns
        events executed."""
        count = 0
        while self._heap and self._heap[0][0] <= end_time and count < 50_000_000:
            self.step()
            count += 1
        self.now = max(self.now, end_time)
        return count

    def empty(self) -> bool:
        return not self._heap
