"""Bump-pointer arenas over simulated pinned memory.

The offloaded deserializer constructs each message as one contiguous slice
(§V-C): every field — scalars, strings, repeated-field element storage,
nested messages — is carved from a single arena so the finished object can
be shipped (and later recycled) as one unit.  Arena allocation never frees
individual objects; the whole arena is released when the enclosing protocol
block is acknowledged.
"""

from __future__ import annotations

from .region import AddressSpace, MemoryRegion

__all__ = ["ArenaExhausted", "Arena"]


class ArenaExhausted(RuntimeError):
    """The arena cannot satisfy an allocation; the caller must start a new
    block (larger messages get a block of their own, §IV)."""


class Arena:
    """A bump allocator over ``[base, base + size)`` virtual addresses.

    The arena does not own memory; it hands out addresses within a span the
    caller has already mapped (typically a block payload inside a send
    buffer).  Writes go through the provided address space.
    """

    __slots__ = ("space", "base", "size", "_top")

    def __init__(self, space: AddressSpace | MemoryRegion, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.space = space
        self.base = base
        self.size = size
        self._top = base

    @property
    def used(self) -> int:
        return self._top - self.base

    @property
    def remaining(self) -> int:
        return self.base + self.size - self._top

    def allocate(self, size: int, alignment: int = 8) -> int:
        """Reserve ``size`` bytes; returns the virtual address.

        Default alignment is 8: the paper aligns all payload allocations to
        8 bytes, sufficient for any reasonable message field type (§IV-A).
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        addr = (self._top + alignment - 1) & ~(alignment - 1)
        if addr + size > self.base + self.size:
            raise ArenaExhausted(
                f"arena needs {size} bytes @ {alignment}, "
                f"only {self.remaining} remain"
            )
        self._top = addr + size
        return addr

    def allocate_bytes(self, data, alignment: int = 8) -> int:
        """Allocate and write ``data``; returns its virtual address."""
        addr = self.allocate(len(data), alignment)
        if len(data):
            self.space.write(addr, data)
        return addr

    def reset(self) -> None:
        """Recycle the arena (block acknowledged)."""
        self._top = self.base
