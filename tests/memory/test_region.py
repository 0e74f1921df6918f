"""Tests for MemoryRegion and AddressSpace."""

from __future__ import annotations

import struct

import pytest

from repro.memory import AddressSpace, MemoryError_, MemoryRegion


class TestMemoryRegion:
    def test_read_write(self):
        r = MemoryRegion(0x1000, 64, "r")
        r.write(0x1000, b"abc")
        assert r.read(0x1000, 3) == b"abc"
        assert r.read(0x1003, 2) == b"\x00\x00"

    def test_bounds(self):
        r = MemoryRegion(0x1000, 16)
        with pytest.raises(MemoryError_):
            r.read(0xFFF, 1)
        with pytest.raises(MemoryError_):
            r.read(0x1000, 17)
        with pytest.raises(MemoryError_):
            r.write(0x100F, b"ab")
        r.write(0x100F, b"a")  # last byte ok

    def test_typed_access_little_endian(self):
        r = MemoryRegion(0x1000, 16)
        r.write_u64(0x1000, 0x0102030405060708)
        assert r.read(0x1000, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])
        assert r.read_u64(0x1000) == 0x0102030405060708
        r.write_u32(0x1008, 0xAABBCCDD)
        assert r.read_u32(0x1008) == 0xAABBCCDD

    def test_view_is_zero_copy(self):
        r = MemoryRegion(0x1000, 8)
        v = r.view(0x1002, 4)
        r.write(0x1002, b"wxyz")
        assert bytes(v) == b"wxyz"  # view reflects later writes

    def test_fill(self):
        r = MemoryRegion(0x1000, 8)
        r.write(0x1000, b"\xff" * 8)
        r.fill(0x1002, 4)
        assert r.read(0x1000, 8) == b"\xff\xff\x00\x00\x00\x00\xff\xff"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MemoryRegion(0, 8)
        with pytest.raises(ValueError):
            MemoryRegion(0x1000, 0)


class TestAddressSpace:
    def test_map_and_resolve(self):
        space = AddressSpace()
        a = space.map(MemoryRegion(0x1000, 0x100, "a"))
        b = space.map(MemoryRegion(0x3000, 0x100, "b"))
        assert space.region_of(0x1050) is a
        assert space.region_of(0x30FF) is b

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.map(MemoryRegion(0x1000, 0x100))
        with pytest.raises(MemoryError_):
            space.map(MemoryRegion(0x10FF, 0x10))
        with pytest.raises(MemoryError_):
            space.map(MemoryRegion(0x0F01, 0x100))
        space.map(MemoryRegion(0x1100, 0x10))  # adjacent is fine

    def test_unmapped_access(self):
        space = AddressSpace()
        space.map(MemoryRegion(0x1000, 0x10))
        with pytest.raises(MemoryError_):
            space.read(0x2000, 1)
        with pytest.raises(MemoryError_):
            space.read(0x100F, 2)  # straddles the end

    def test_unmap(self):
        space = AddressSpace()
        r = space.map(MemoryRegion(0x1000, 0x10))
        space.unmap(r)
        with pytest.raises(MemoryError_):
            space.region_of(0x1000)
        with pytest.raises(MemoryError_):
            space.unmap(r)

    def test_read_write_through_space(self):
        space = AddressSpace()
        space.map(MemoryRegion(0x1000, 0x20))
        space.write_u64(0x1010, 42)
        assert space.read_u64(0x1010) == 42

    def test_mirrored_regions_have_separate_backing(self):
        """Two sides map the same virtual range; writes do not teleport —
        only the fabric copies between them (the shared-address-space
        illusion is built on explicit DMA)."""
        dpu = AddressSpace("dpu")
        host = AddressSpace("host")
        dpu.map(MemoryRegion(0x8000, 0x100, "dpu.sbuf"))
        host.map(MemoryRegion(0x8000, 0x100, "host.rbuf"))
        dpu.write(0x8000, b"ping")
        assert host.read(0x8000, 4) == b"\x00\x00\x00\x00"
        host.write(0x8000, dpu.read(0x8000, 4))  # simulated DMA
        assert host.read(0x8000, 4) == b"ping"


def _private(base, size, name):
    return MemoryRegion(base, size, name)


def _shared(base, size, name):
    from repro.memory.shm import SharedRegion

    return SharedRegion(base, size, name)


@pytest.mark.parametrize("make_region", [_private, _shared], ids=["bytearray", "shm"])
class TestReadArray:
    """The typed-span primitive: one bounds check, one reinterpretation,
    the same on a private ``bytearray`` and on a shared-memory segment."""

    @pytest.fixture
    def space(self, make_region):
        space = AddressSpace()
        regions = [make_region(0x1000, 0x100, "a"), make_region(0x1100, 0x100, "b")]
        for region in regions:
            space.map(region)
        yield space
        for region in regions:
            if hasattr(region, "cleanup"):
                region.cleanup()

    def test_reads_every_element_kind(self, space):
        space.write(0x1008, struct.pack("<3q", -1, 2, -(2**63)))
        assert space.read_array(0x1008, "q", 3) == (-1, 2, -(2**63))
        space.write(0x1040, struct.pack("<2f4?", 1.5, -0.25, True, False, True, True))
        assert space.read_array(0x1040, "f", 2) == (1.5, -0.25)
        assert space.read_array(0x1048, "?", 4) == (True, False, True, True)
        assert space.read_array(0x1008, "q", 0) == ()
        region = space.region_of(0x1008)
        assert region.read_array(0x1008, "I", 2) == (0xFFFFFFFF, 0xFFFFFFFF)

    def test_resolves_the_span_exactly_once(self, space):
        calls = []
        region_of = space.region_of
        space.region_of = lambda addr, length=1: calls.append((addr, length)) or region_of(
            addr, length
        )
        space.read_array(0x1010, "Q", 16)
        assert calls == [(0x1010, 128)]

    @pytest.mark.parametrize(
        "addr,count",
        [
            (0x10F8, 2),  # straddles the two adjacent regions
            (0x11F8, 2),  # runs past the last mapped byte
            (0x1000, 2**32 - 1),
            (0, 1),
            (0x0FF8, 1),
        ],
    )
    def test_span_must_lie_in_one_region(self, space, addr, count):
        with pytest.raises(MemoryError_):
            space.read_array(addr, "Q", count)
        with pytest.raises(MemoryError_):
            space.region_of(0x1000).read_array(addr, "Q", count)
