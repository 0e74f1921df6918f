"""Shared-memory backed regions for the multiprocess transport.

The in-process simulation gives every :class:`~repro.memory.region.MemoryRegion`
a private anonymous mapping and lets the fabric copy bytes between the two
backings — an honest model of two machines with separate RAM joined by a
DMA engine.  The ``shm`` transport keeps the same model but makes the
*receive* side of each mirrored pair a ``multiprocessing.shared_memory``
segment: the sender's fabric maps the receiver's RBuf segment and plays
the DMA engine itself, writing payload bytes directly into physical pages
the receiver also has mapped.  The receiver's zero-copy ``memoryview``
reads (deserializer, response framing) then really are zero-copy across
an OS process boundary.

A :class:`SharedRegion` is address-compatible with ``MemoryRegion`` —
same base/size/name semantics, same typed accessors — its backing is just
a ``memoryview`` over the segment instead of a private mapping.

Lifecycle: exactly one process *creates* a segment (and is responsible
for ``unlink``); every other process *attaches* by segment name and only
``close``\\ s.  :func:`cleanup` is idempotent and safe to call from
``finally`` blocks and supervisor teardown paths, so a crashed child
never strands more than its own mapping (the creator's unlink still
removes the segment from ``/dev/shm``).
"""

from __future__ import annotations

import os
import secrets

from .region import MemoryRegion

__all__ = ["SharedRegion", "segment_name"]


def segment_name(tag: str) -> str:
    """A collision-resistant ``/dev/shm`` segment name: tag + pid + nonce,
    so parallel test runs and crashed predecessors never alias."""
    clean = "".join(c if c.isalnum() else "-" for c in tag)[:32]
    return f"repro-{clean}-{os.getpid()}-{secrets.token_hex(4)}"


class SharedRegion(MemoryRegion):
    """A pinned region whose backing store is a shared-memory segment."""

    __slots__ = ("shm", "owner")

    def __init__(self, base: int, size: int, name: str = "region", *,
                 segment: str | None = None, create: bool = True) -> None:
        # Imported lazily: multiprocessing.shared_memory spawns the
        # resource tracker on first use, which pure-inproc runs never need.
        from multiprocessing import shared_memory

        if base <= 0:
            raise ValueError("region base must be a positive virtual address")
        if size <= 0:
            raise ValueError("region size must be positive")
        self.base = base
        self.size = size
        self.name = name
        if create:
            segment = segment or segment_name(name)
            self.shm = shared_memory.SharedMemory(name=segment, create=True, size=size)
        else:
            if segment is None:
                raise ValueError("attaching requires the segment name")
            self.shm = shared_memory.SharedMemory(name=segment)
            if self.shm.size < size:
                self.shm.close()
                raise ValueError(
                    f"{name}: segment {segment} is {self.shm.size}B, need {size}B"
                )
        self.owner = create
        # The allocated segment may be page-rounded past the requested
        # size; the region exposes exactly [base, base+size).
        self.buf = self.shm.buf[:size]

    @property
    def segment(self) -> str:
        """The ``/dev/shm`` name a peer process attaches with."""
        return self.shm.name

    @classmethod
    def attach(cls, base: int, size: int, segment: str, name: str = "region") -> "SharedRegion":
        """Map an existing segment created by a peer process."""
        return cls(base, size, name, segment=segment, create=False)

    def cleanup(self) -> None:
        """Release this mapping; the creating process also unlinks the
        segment.  Idempotent — teardown paths may race."""
        if self.shm is None:
            return
        # Drop the exported slice first: SharedMemory.close() refuses
        # while memoryviews into the mapping are alive.
        self.buf = bytearray(0)
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
        self.shm = None
