"""Offset-based dynamic allocator with fully external bookkeeping.

The paper allocates protocol blocks from the send buffer with the Vulkan®
Memory Allocator (§IV-A): RPCs complete out of order on the server, so a
future block can outlive a past one and a ring buffer would head-of-line
block; and because the managed memory is *remote*, the allocator must keep
its state entirely outside the managed range and hand out plain offsets,
not pointers.

:class:`OffsetAllocator` reproduces those properties:

* works purely on ``(offset, size)`` pairs over a virtual range of bytes it
  never touches;
* bookkeeping (free list, live-allocation table) lives in ordinary Python
  structures, i.e. "externally";
* first-fit over an address-ordered free list with eager coalescing on
  free, the classic arrangement VMA defaults to for small heaps;
* arbitrary power-of-two alignment per allocation (blocks need 1024-byte
  alignment so their bucket index fits the 4-byte immediate, §IV-E).
"""

from __future__ import annotations

import bisect

__all__ = ["AllocationError", "OffsetAllocator"]


class AllocationError(RuntimeError):
    """Raised when a request cannot be satisfied or a free is invalid."""


class OffsetAllocator:
    """First-fit offset allocator with coalescing.

    Parameters
    ----------
    capacity:
        Size in bytes of the managed virtual range ``[0, capacity)``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # Address-ordered free list of (offset, size); invariant: entries
        # are disjoint, sorted, and never adjacent (always coalesced).
        self._free: list[tuple[int, int]] = [(0, capacity)]
        # offset -> (reserved_start, reserved_size); the reserved span may
        # start before the returned offset because of alignment padding.
        self._live: dict[int, tuple[int, int]] = {}

    # -- introspection -------------------------------------------------------

    @property
    def bytes_free(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def bytes_live(self) -> int:
        return sum(size for _, size in self._live.values())

    @property
    def live_count(self) -> int:
        return len(self._live)

    def is_empty(self) -> bool:
        """True when nothing is allocated (range fully recycled)."""
        return not self._live

    # -- allocate / free -----------------------------------------------------

    def allocate(self, size: int, alignment: int = 1) -> int:
        """Reserve ``size`` bytes aligned to ``alignment``; returns offset.

        Raises :class:`AllocationError` when no free span fits (the caller
        — the block writer — treats that as back-pressure and retries after
        acknowledgments recycle memory).
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        for idx, (start, span) in enumerate(self._free):
            aligned = (start + alignment - 1) & -alignment
            pad = aligned - start
            if pad + size > span:
                continue
            # Reserve [start, aligned+size): the alignment padding is
            # charged to the allocation so the free list never fragments
            # into unusable slivers smaller than the alignment.
            reserved = pad + size
            rest = span - reserved
            if rest:
                self._free[idx] = (start + reserved, rest)
            else:
                del self._free[idx]
            self._live[aligned] = (start, reserved)
            return aligned
        raise AllocationError(
            f"no free span for {size} bytes @ align {alignment} "
            f"({self.bytes_free} bytes free in {len(self._free)} spans)"
        )

    def free(self, offset: int) -> None:
        """Release a previous allocation; coalesces with neighbours."""
        try:
            start, size = self._live.pop(offset)
        except KeyError:
            raise AllocationError(f"free of unallocated offset {offset:#x}") from None
        free = self._free
        # Insertion point in the sorted free list: (start,) sorts before
        # every (start, size) entry that begins at start or later.
        idx = bisect.bisect_left(free, (start,))
        end = start + size
        # Coalesce with successor.
        if idx < len(free) and free[idx][0] == end:
            size += free[idx][1]
            del free[idx]
        # Coalesce with predecessor.
        if idx > 0:
            pstart, psize = free[idx - 1]
            if pstart + psize == start:
                free[idx - 1] = (pstart, psize + size)
                return
            if pstart + psize > start:
                raise AllocationError("double free or corrupted free list")
        free.insert(idx, (start, size))

    def reset(self) -> None:
        """Drop all allocations and return to the pristine state."""
        self._free = [(0, self.capacity)]
        self._live.clear()
