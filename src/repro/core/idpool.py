"""Deterministic request-ID pool (§IV-D).

Request IDs are 2-byte handles to per-request metadata.  They are *never
transmitted with requests*: the client and the server each run an
identical pool and perform frees and allocations in the same order —
the reliable connection guarantees both sides observe the same sequence
of events — so the n-th request of the n-th block receives the same ID on
both sides.

The pool is FIFO: freed IDs go to the back, allocation takes the front.
FIFO (rather than LIFO) maximizes the time before an ID is reused, which
makes accidental desynchronization detectable instead of silently aliasing
a live request.
"""

from __future__ import annotations

from collections import deque

__all__ = ["IdPoolError", "RequestIdPool"]

MAX_IDS = 1 << 16


class IdPoolError(RuntimeError):
    """Exhaustion or a free that does not match a live allocation."""


class RequestIdPool:
    """FIFO pool of request IDs ``0 .. capacity-1``."""

    def __init__(self, capacity: int = MAX_IDS) -> None:
        if not 1 <= capacity <= MAX_IDS:
            raise ValueError(f"capacity must be in [1, {MAX_IDS}]")
        self.capacity = capacity
        self._free: deque[int] = deque(range(capacity))
        self._live: set[int] = set()

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def free_count(self) -> int:
        return len(self._free)

    def allocate(self) -> int:
        """Take the next ID, deterministically."""
        try:
            rid = self._free.popleft()
        except IndexError:
            raise IdPoolError(
                f"request-ID space exhausted ({self.capacity} concurrent requests)"
            ) from None
        self._live.add(rid)
        return rid

    def allocate_many(self, count: int) -> list[int]:
        """Allocate ``count`` IDs in order (one block's worth)."""
        free = self._free
        if count > len(free):
            raise IdPoolError(
                f"need {count} IDs, only {len(free)} free"
            )
        ids = []
        for _ in range(count):
            ids.append(free.popleft())
        self._live.update(ids)
        return ids

    def free(self, rid: int) -> None:
        self.free_many((rid,))

    def free_many(self, ids) -> None:
        """Free ``ids`` in order (one acknowledged block's worth)."""
        remove, append = self._live.remove, self._free.append
        for rid in ids:
            try:
                remove(rid)
            except KeyError:
                raise IdPoolError(f"request ID {rid} is not live") from None
            append(rid)

    def fingerprint(self) -> tuple[int, int, int]:
        """A cheap synchronization probe: (live, free, next-ID).  Two
        synchronized pools always agree on this triple."""
        return (len(self._live), len(self._free), self._free[0] if self._free else -1)
