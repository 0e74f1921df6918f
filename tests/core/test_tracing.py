"""Tests for the block dissector and hexdump tooling."""

from __future__ import annotations

import pytest

from repro.core.tracing import describe_flags, dissect_block, hexdump
from repro.core.wire import BlockWriter, Flags, Preamble
from repro.memory import AddressSpace, MemoryRegion

BASE = 0x9000_0000


@pytest.fixture
def space():
    s = AddressSpace()
    s.map(MemoryRegion(BASE, 1 << 16))
    return s


class TestHexdump:
    def test_format(self):
        out = hexdump(b"hello\x00world!", base_addr=0x1000)
        assert "0x0000001000" in out
        assert "68 65 6c 6c 6f" in out
        assert "|hello.world!|" in out

    def test_multiline(self):
        out = hexdump(bytes(range(40)))
        assert len(out.splitlines()) == 3

    def test_empty(self):
        assert hexdump(b"") == ""


class TestDescribeFlags:
    def test_none(self):
        assert describe_flags(0) == "-"

    def test_known(self):
        assert describe_flags(Flags.ERROR | Flags.LARGE) == "ERROR|LARGE"

    def test_recovery_and_trace_bits(self):
        assert describe_flags(Flags.ABORTED) == "ABORTED"
        assert describe_flags(Flags.WIRE_PAYLOAD) == "WIRE"
        assert describe_flags(Flags.TRACE_CTX) == "TRACE_CTX"

    def test_unknown_bits(self):
        assert "unknown" in describe_flags(1 << 11)  # (1 << 10 is MALFORMED now)

    def test_unknown_mixed_with_known(self):
        out = describe_flags(Flags.ERROR | (1 << 12))
        assert out.startswith("ERROR|")
        assert "unknown(0x1000)" in out

    def test_every_defined_bit_named(self):
        # A new Flags bit without a _FLAG_NAMES entry would dissect as
        # "unknown" — catch that drift here.
        defined = [
            v for k, v in vars(Flags).items()
            if not k.startswith("_") and isinstance(v, int) and v
        ]
        for bit in defined:
            assert "unknown" not in describe_flags(bit), f"bit {bit:#x} unnamed"


class TestDissect:
    def test_well_formed_block(self, space):
        w = BlockWriter(space, BASE, 4096)
        _, p = w.begin_message(5)
        space.write(p, b"hello")
        w.commit_message(5, method_or_id=7)
        _, p = w.begin_message(100)
        space.write(p, b"B" * 100)
        w.commit_message(100, method_or_id=3, flags=Flags.ERROR)
        w.seal(ack_blocks=2)

        out = dissect_block(space, BASE, 4096)
        assert "messages=2 acks=2" in out
        assert "id/method=7" in out
        assert b"hello".hex() in out
        assert "flags=ERROR" in out
        assert "…" in out  # long payload previewed

    def test_malformed_block(self, space):
        Preamble(5, 0, 1 << 30).pack_into(space, BASE)
        out = dissect_block(space, BASE, 4096)
        assert "MALFORMED" in out
        # Falls back to a hexdump of the head.
        assert f"{BASE:#x}" in out

    def test_never_raises_on_garbage(self, space):
        space.write(BASE, bytes(range(64)))
        dissect_block(space, BASE, 4096)  # must not raise

    def test_unreadable_preamble(self, space):
        # No region is mapped at this address: even reading the preamble
        # fails, and the dissector reports it instead of raising.
        out = dissect_block(space, 0x1234_0000, 4096)
        assert "unreadable preamble" in out

    def test_truncated_header(self, space):
        # Preamble promises a message, but block_length ends mid-header.
        from repro.core.wire import PREAMBLE_SIZE

        Preamble(1, 0, PREAMBLE_SIZE + 3).pack_into(space, BASE)
        out = dissect_block(space, BASE, 4096)
        assert "messages=1" in out
        assert "MALFORMED" in out

    def test_payload_overruns_block(self, space):
        # Header claims more payload than the declared block length holds.
        from repro.core.wire import HEADER_SIZE, PREAMBLE_SIZE, MessageHeader

        Preamble(1, 0, PREAMBLE_SIZE + HEADER_SIZE + 4).pack_into(space, BASE)
        MessageHeader(500, 1, 0).pack_into(space, BASE + PREAMBLE_SIZE)
        out = dissect_block(space, BASE, 4096)
        assert "MALFORMED" in out
        # The fallback hexdump shows the head of the raw block.
        assert f"{BASE:#012x}" in out

    def test_hexdump_alignment_in_fallback(self, space):
        Preamble(9, 0, 1 << 30).pack_into(space, BASE)
        out = dissect_block(space, BASE, 4096)
        dump_lines = [l for l in out.splitlines() if l.startswith(f"{BASE:#012x}"[:4])]
        dump_lines = [l for l in out.splitlines() if "|" in l]
        assert dump_lines, out
        # Hex columns align: every dump line pads hex to the same width,
        # so the ASCII gutter starts at one fixed column.
        gutters = {l.index("|") for l in dump_lines}
        assert len(gutters) == 1


class TestHexdumpAlignment:
    def test_short_final_line_pads_hex_column(self):
        out = hexdump(bytes(range(20)), base_addr=0)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].index("|") == lines[1].index("|")

    def test_offset_column_advances_by_width(self):
        out = hexdump(bytes(64), base_addr=0x2000)
        offsets = [int(l.split()[0], 16) for l in out.splitlines()]
        assert offsets == [0x2000, 0x2010, 0x2020, 0x2030]
