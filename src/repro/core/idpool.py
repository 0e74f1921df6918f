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

__all__ = ["IdPoolError", "RequestIdPool"]

MAX_IDS = 1 << 16


class IdPoolError(RuntimeError):
    """Exhaustion or a free that does not match a live allocation."""


class RequestIdPool:
    """FIFO pool of request IDs ``0 .. capacity-1``.  The free IDs are
    ``_free[_head:]``, oldest first: a block's IDs are taken as one slice
    and given back as one ``extend``."""

    def __init__(self, capacity: int = MAX_IDS) -> None:
        if not 1 <= capacity <= MAX_IDS:
            raise ValueError(f"capacity must be in [1, {MAX_IDS}]")
        self.capacity = capacity
        self._free: list[int] = list(range(capacity))
        self._head = 0
        self._live: set[int] = set()

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def free_count(self) -> int:
        return len(self._free) - self._head

    def allocate(self) -> int:
        """Take the next ID, deterministically."""
        return self.allocate_many(1)[0]

    def allocate_many(self, count: int) -> list[int]:
        """Allocate ``count`` IDs in order (one block's worth), or none."""
        free, head = self._free, self._head
        if count > len(free) - head:
            raise IdPoolError(
                f"request-ID space exhausted ({self.capacity} concurrent requests): "
                f"need {count} IDs, only {len(free) - head} free"
            )
        ids = free[head:head + count]
        head += count
        if head >= self.capacity:  # the taken prefix goes, amortized O(1)
            del free[:head]
            head = 0
        self._head = head
        self._live.update(ids)
        return ids

    def free(self, rid: int) -> None:
        self.free_many((rid,))

    def free_many(self, ids) -> None:
        """Free ``ids`` in order (one acknowledged block's worth), or none
        of them: an ID that is not live, or is given twice, raises."""
        live = self._live
        if not live.issuperset(ids) or len(set(ids)) != len(ids):
            raise IdPoolError(f"request IDs {list(ids)} are not live once each")
        live.difference_update(ids)
        self._free.extend(ids)

    def fingerprint(self) -> tuple[int, int, int]:
        """A cheap synchronization probe: (live, free, next-ID).  Two
        synchronized pools always agree on this triple."""
        free, head = self._free, self._head
        return (len(self._live), len(free) - head, free[head] if len(free) > head else -1)
