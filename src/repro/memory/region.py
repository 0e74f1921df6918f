"""Virtual address space and pinned memory regions.

The paper's shared address space (§III-B) is the keystone of the design: a
pointer value ``x`` inside a request on the DPU must denote the same bytes
at virtual address ``x`` on the host, because receive buffers **mirror**
the remote send buffers at identical virtual addresses.  We model this
explicitly:

* a :class:`MemoryRegion` is a contiguous run of simulated "pinned" memory
  with a fixed 64-bit base virtual address and a private backing store
  (an anonymous ``MAP_PRIVATE`` mapping, one per side — the two machines
  do *not* share RAM, not even across ``fork``); a page holds RAM only
  once it is written, so a mostly idle buffer costs only what is touched;
* an :class:`AddressSpace` is one side's view: a set of non-overlapping
  regions indexed by address.  Both the DPU and the host register a region
  at the *same* base address for each mirrored buffer pair; the simulated
  RDMA fabric copies bytes between the two backing stores, which is exactly
  what the DMA engine does through PCIe on real hardware.

All pointer arithmetic in the deserializer and the block protocol operates
on these 64-bit virtual addresses, never on Python object references, so
address-identity bugs the paper's design must avoid (e.g. forgetting to
mirror a buffer) fail loudly here too.
"""

from __future__ import annotations

import bisect
import mmap
import struct

__all__ = ["MemoryError_", "MemoryRegion", "AddressSpace"]


class MemoryError_(RuntimeError):
    """Out-of-bounds or unmapped access in the simulated address space.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class MemoryRegion:
    """A contiguous, pinned, registered memory region.

    Parameters
    ----------
    base:
        Virtual base address.  Must be nonzero (zero is the null page).
    size:
        Region length in bytes.
    name:
        Diagnostic label (e.g. ``"dpu.sbuf[0]"``).
    """

    __slots__ = ("base", "size", "name", "buf")

    def __init__(self, base: int, size: int, name: str = "region") -> None:
        if base <= 0:
            raise ValueError("region base must be a positive virtual address")
        if size <= 0:
            raise ValueError("region size must be positive")
        self.base = base
        self.size = size
        self.name = name
        # not mmap's default MAP_SHARED: a forked child's writes would show here
        self.buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.base + self.size

    def _check(self, addr: int, length: int) -> int:
        if addr < self.base or addr + length > self.base + self.size:
            raise MemoryError_(
                f"{self.name}: access [{addr:#x}, {addr + length:#x}) outside "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def region_of(self, addr: int, length: int = 1) -> "MemoryRegion":
        """A region stands where a space is expected: the span must lie
        inside it.  The caller then reads and writes ``buf`` at offsets
        from ``base`` it has proven in bounds — checked once, then loaded."""
        if addr < self.base or addr + length > self.base + self.size:
            self._check(addr, length)  # raises, naming the span
        return self

    # -- byte access ---------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        off = self._check(addr, length)
        return bytes(memoryview(self.buf)[off : off + length])

    def view(self, addr: int, length: int) -> memoryview:
        """Zero-copy view of the backing bytes (host-side reads use this)."""
        off = addr - self.base
        if off < 0 or off + length > self.size:
            self._check(addr, length)  # raises, naming the span
        return memoryview(self.buf)[off : off + length]

    def write(self, addr: int, data) -> None:
        off = self._check(addr, len(data))
        self.buf[off : off + len(data)] = data

    def fill(self, addr: int, length: int) -> None:
        """Zero ``length`` bytes at ``addr``."""
        off = self._check(addr, length)
        self.buf[off : off + length] = bytes(length)

    # -- typed access (little-endian, matching the wire assumption) ----------

    def read_array(self, addr: int, fmt: str, count: int) -> tuple:
        """``count`` consecutive elements of struct code ``fmt`` starting at
        ``addr``: one bounds check for the whole span, one unpack."""
        span = f"<{count}{fmt}"
        off = self._check(addr, struct.calcsize(span))
        return struct.unpack_from(span, self.buf, off)

    def read_u64(self, addr: int) -> int:
        off = self._check(addr, 8)
        return struct.unpack_from("<Q", self.buf, off)[0]

    def write_u64(self, addr: int, value: int) -> None:
        off = self._check(addr, 8)
        struct.pack_into("<Q", self.buf, off, value & 0xFFFFFFFFFFFFFFFF)

    def read_u32(self, addr: int) -> int:
        off = self._check(addr, 4)
        return struct.unpack_from("<I", self.buf, off)[0]

    def write_u32(self, addr: int, value: int) -> None:
        off = self._check(addr, 4)
        struct.pack_into("<I", self.buf, off, value & 0xFFFFFFFF)


class AddressSpace:
    """One side's virtual address space: non-overlapping regions.

    Lookup is O(log n) by bisect on sorted region bases; n is tiny (a few
    buffers per connection), mirroring the paper's bounded resource model.
    """

    def __init__(self, name: str = "as") -> None:
        self.name = name
        self._bases: list[int] = []
        self._regions: list[MemoryRegion] = []

    def map(self, region: MemoryRegion) -> MemoryRegion:
        """Register a region; rejects overlap with any existing mapping."""
        idx = bisect.bisect_left(self._bases, region.base)
        if idx > 0 and self._regions[idx - 1].end > region.base:
            raise MemoryError_(
                f"{self.name}: {region.name} overlaps {self._regions[idx - 1].name}"
            )
        if idx < len(self._regions) and region.end > self._regions[idx].base:
            raise MemoryError_(
                f"{self.name}: {region.name} overlaps {self._regions[idx].name}"
            )
        self._bases.insert(idx, region.base)
        self._regions.insert(idx, region)
        return region

    def unmap(self, region: MemoryRegion) -> None:
        idx = bisect.bisect_left(self._bases, region.base)
        if idx >= len(self._regions) or self._regions[idx] is not region:
            raise MemoryError_(f"{self.name}: {region.name} is not mapped")
        del self._bases[idx]
        del self._regions[idx]

    def region_of(self, addr: int, length: int = 1) -> MemoryRegion:
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            if addr + length <= region.base + region.size:  # base <= addr by the bisect
                return region
        raise MemoryError_(
            f"{self.name}: address [{addr:#x}, {addr + length:#x}) is unmapped"
        )

    def regions(self) -> list[MemoryRegion]:
        return list(self._regions)

    # -- convenience pass-throughs -------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        return self.region_of(addr, length).read(addr, length)

    def view(self, addr: int, length: int) -> memoryview:
        return self.region_of(addr, length).view(addr, length)

    def write(self, addr: int, data) -> None:
        self.region_of(addr, len(data)).write(addr, data)

    def read_array(self, addr: int, fmt: str, count: int) -> tuple:
        length = count * struct.calcsize("<" + fmt)
        return self.region_of(addr, length).read_array(addr, fmt, count)

    def read_u64(self, addr: int) -> int:
        return self.region_of(addr, 8).read_u64(addr)

    def write_u64(self, addr: int, value: int) -> None:
        self.region_of(addr, 8).write_u64(addr, value)

    def read_u32(self, addr: int) -> int:
        return self.region_of(addr, 4).read_u32(addr)

    def write_u32(self, addr: int, value: int) -> None:
        self.region_of(addr, 4).write_u32(addr, value)
