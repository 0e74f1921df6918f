"""Tests for the block wire format (preamble/header/payload codec)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import (
    HEADER_SIZE,
    PAYLOAD_ALIGN,
    PREAMBLE_SIZE,
    BlockFormatError,
    BlockReader,
    BlockWriter,
    ChecksumError,
    Flags,
    MessageHeader,
    Preamble,
    bucket_to_offset,
    compute_block_checksum,
    offset_to_bucket,
)
from repro.memory import AddressSpace, MemoryRegion

BASE = 0x40_0000


@pytest.fixture
def space():
    s = AddressSpace()
    s.map(MemoryRegion(BASE, 1 << 20, "blk"))
    return s


class TestStructs:
    def test_preamble_roundtrip(self, space):
        Preamble(3, 2, 100).pack_into(space, BASE)
        p = Preamble.read(space, BASE)
        assert (p.message_count, p.ack_blocks, p.block_length) == (3, 2, 100)

    def test_header_roundtrip(self, space):
        MessageHeader(500, 7, Flags.ERROR).pack_into(space, BASE)
        h = MessageHeader.read(space, BASE)
        assert (h.payload_size, h.method_or_id, h.flags) == (500, 7, Flags.ERROR)

    def test_sizes(self):
        # 16 = count/acks/length (8) + body CRC-32 (4) + sequence (4);
        # stays a multiple of PAYLOAD_ALIGN so headers stay aligned.
        assert PREAMBLE_SIZE == 16
        assert PREAMBLE_SIZE % PAYLOAD_ALIGN == 0
        assert HEADER_SIZE == 8

    def test_preamble_sequence_roundtrip(self, space):
        Preamble(1, 0, 64, 0, sequence=0xDEAD_BEEF).pack_into(space, BASE)
        assert Preamble.read(space, BASE).sequence == 0xDEAD_BEEF
        # Default stays 0: the unsequenced form, accepted by any receiver.
        Preamble(1, 0, 64).pack_into(space, BASE)
        assert Preamble.read(space, BASE).sequence == 0

    def test_bucket_formula(self):
        # §IV-E: offset = bucket * alignment
        assert bucket_to_offset(5, 1024) == 5120
        assert offset_to_bucket(5120, 1024) == 5
        with pytest.raises(BlockFormatError):
            offset_to_bucket(5121, 1024)


class TestWriterReader:
    def test_single_message(self, space):
        w = BlockWriter(space, BASE, 8192)
        _, payload = w.begin_message(5)
        space.write(payload, b"hello")
        w.commit_message(5, method_or_id=3)
        length = w.seal(ack_blocks=1)

        r = BlockReader(space, BASE, 8192)
        assert r.preamble.message_count == 1
        assert r.preamble.ack_blocks == 1
        assert r.preamble.block_length == length
        msgs = r.messages()
        assert len(msgs) == 1
        assert msgs[0].header.method_or_id == 3
        assert space.read(msgs[0].payload_addr, 5) == b"hello"

    def test_multiple_messages_alignment(self, space):
        w = BlockWriter(space, BASE, 8192)
        for i, data in enumerate([b"a", b"bb" * 5, b"", b"c" * 13]):
            _, payload = w.begin_message(len(data))
            if data:
                space.write(payload, data)
            w.commit_message(len(data), i)
        w.seal()
        r = BlockReader(space, BASE, 8192)
        msgs = r.messages()
        assert [m.payload_size for m in msgs] == [1, 10, 0, 13]
        for m in msgs:
            # Headers 8-byte aligned => payloads 8-byte aligned (§IV-A).
            assert (m.payload_addr - HEADER_SIZE) % PAYLOAD_ALIGN == 0
            assert m.payload_addr % PAYLOAD_ALIGN == 0

    def test_zero_copy_payload_in_place(self, space):
        """The payload address returned by begin_message is inside the
        block: writes there need no later copy."""
        w = BlockWriter(space, BASE, 4096)
        _, payload = w.begin_message(8)
        assert BASE < payload < BASE + 4096
        space.write_u64(payload, 0x1122334455667788)
        w.commit_message(8, 0)
        w.seal()
        msg = BlockReader(space, BASE, 4096).messages()[0]
        assert msg.payload_addr == payload

    def test_block_full(self, space):
        w = BlockWriter(space, BASE, 64)
        with pytest.raises(BlockFormatError, match="block full"):
            w.begin_message(100)

    def test_commit_past_block_end_rejected(self, space):
        """The size a payload writer reports back is re-checked against
        the block, not trusted: headers are stored unchecked after it."""
        w = BlockWriter(space, BASE, 64)
        w.begin_message(8)
        with pytest.raises(BlockFormatError, match="past the block end"):
            w.commit_message(100, 1)
        assert w.message_count == 0

    def test_region_stands_in_for_the_space(self, space):
        """An endpoint hands the buffer it owns straight to the writer
        and the reader; the block bytes are the same either way."""
        region = space.region_of(BASE)
        images = []
        for where in (space, region):
            region.fill(BASE, 256)
            w = BlockWriter(where, BASE, 256)
            _, payload = w.begin_message(5)
            where.write(payload, b"hello")
            w.commit_message(5, method_or_id=3, flags=Flags.ERROR)
            length = w.seal(ack_blocks=2, sequence=7)
            r = BlockReader(where, BASE, 256, verify_checksum=True)
            assert r.records() == [(3, Flags.ERROR, payload, 5)]
            images.append(space.read(BASE, length))
        assert images[0] == images[1]

    def test_commit_without_begin(self, space):
        w = BlockWriter(space, BASE, 128)
        with pytest.raises(BlockFormatError):
            w.commit_message(0, 0)

    def test_double_begin(self, space):
        w = BlockWriter(space, BASE, 1024)
        w.begin_message(8)
        with pytest.raises(BlockFormatError):
            w.begin_message(8)

    def test_abort_message(self, space):
        w = BlockWriter(space, BASE, 1024)
        w.begin_message(8)
        w.abort_message()
        _, p = w.begin_message(4)
        space.write(p, b"abcd")
        w.commit_message(4, 1)
        w.seal()
        assert BlockReader(space, BASE, 1024).preamble.message_count == 1

    def test_seal_with_open_message_rejected(self, space):
        w = BlockWriter(space, BASE, 1024)
        w.begin_message(8)
        with pytest.raises(BlockFormatError):
            w.seal()

    def test_payload_size_limit_without_large_reservation(self, space):
        """A message reserved small cannot commit a 2^16+ size — it lacks
        the extension word."""
        w = BlockWriter(space, BASE, 1 << 18)
        w.begin_message((1 << 16) - 1)
        with pytest.raises(BlockFormatError, match="2\\^16"):
            w.commit_message(1 << 16, 0)

    def test_large_message_form(self, space):
        """§IV-E extension: reserving >= 2^16 bytes switches to the LARGE
        form (marker size + 64-bit extension word) transparently."""
        from repro.core.wire import Flags

        big = bytes(range(256)) * 300  # 76 800 bytes
        w = BlockWriter(space, BASE, 1 << 18)
        _, payload = w.begin_message(len(big))
        space.write(payload, big)
        w.commit_message(len(big), method_or_id=9)
        w.seal()
        msgs = BlockReader(space, BASE, 1 << 18).messages()
        assert len(msgs) == 1
        assert msgs[0].header.flags & Flags.LARGE
        assert msgs[0].payload_size == len(big)
        assert space.read(msgs[0].payload_addr, len(big)) == big

    def test_large_and_small_messages_mix(self, space):
        w = BlockWriter(space, BASE, 1 << 18)
        _, p = w.begin_message(4)
        space.write(p, b"tiny")
        w.commit_message(4, 1)
        big = b"B" * 70000
        _, p = w.begin_message(len(big))
        space.write(p, big)
        w.commit_message(len(big), 2)
        _, p = w.begin_message(2)
        space.write(p, b"ok")
        w.commit_message(2, 3)
        w.seal()
        msgs = BlockReader(space, BASE, 1 << 18).messages()
        assert [m.payload_size for m in msgs] == [4, 70000, 2]
        assert space.read(msgs[2].payload_addr, 2) == b"ok"

    def test_reader_rejects_overrun_claims(self, space):
        Preamble(0, 0, 1 << 20).pack_into(space, BASE)
        with pytest.raises(BlockFormatError):
            BlockReader(space, BASE, 4096)

    def test_reader_rejects_truncated_payload(self, space):
        w = BlockWriter(space, BASE, 1024)
        _, p = w.begin_message(16)
        w.commit_message(16, 0)
        w.seal()
        # Corrupt: claim more messages than present.
        Preamble(2, 0, PREAMBLE_SIZE + HEADER_SIZE + 16).pack_into(space, BASE)
        with pytest.raises(BlockFormatError):
            BlockReader(space, BASE, 1024).messages()

    def test_reader_rejects_block_ending_mid_header(self, space):
        # The preamble promises a message, but block_length ends inside
        # its header.
        Preamble(1, 0, PREAMBLE_SIZE + 3).pack_into(space, BASE)
        with pytest.raises(BlockFormatError):
            BlockReader(space, BASE, 4096).messages()


class TestPropertyRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=200), min_size=0, max_size=40),
        ack=st.integers(0, 65535),
    )
    def test_random_batches(self, payloads, ack):
        space = AddressSpace()
        space.map(MemoryRegion(BASE, 1 << 16, "blk"))
        w = BlockWriter(space, BASE, 1 << 16)
        for i, data in enumerate(payloads):
            _, addr = w.begin_message(len(data))
            if data:
                space.write(addr, data)
            w.commit_message(len(data), i % 65536, Flags.ERROR if i % 3 == 0 else 0)
        length = w.seal(ack)
        assert length <= 1 << 16

        r = BlockReader(space, BASE, 1 << 16)
        assert r.preamble.ack_blocks == ack
        msgs = r.messages()
        assert len(msgs) == len(payloads)
        for i, (m, data) in enumerate(zip(msgs, payloads)):
            assert m.payload_size == len(data)
            assert space.read(m.payload_addr, len(data)) == data
            assert m.header.method_or_id == i % 65536


class TestChecksums:
    def seal_block(self, space, payload=b"checksummed", sequence=0):
        w = BlockWriter(space, BASE, 4096)
        _, addr = w.begin_message(len(payload))
        space.write(addr, payload)
        w.commit_message(len(payload), 1)
        return w.seal(sequence=sequence)

    def test_seal_writes_body_crc(self, space):
        length = self.seal_block(space)
        p = Preamble.read(space, BASE)
        assert p.checksum != 0
        assert p.checksum == compute_block_checksum(space, BASE, length)

    def test_verifying_reader_accepts_clean_block(self, space):
        self.seal_block(space)
        r = BlockReader(space, BASE, 4096, verify_checksum=True)
        assert r.messages()[0].payload_size == len(b"checksummed")

    def test_body_corruption_detected(self, space):
        self.seal_block(space)
        # Flip one bit inside the body (past the 16-byte preamble).
        addr = BASE + PREAMBLE_SIZE + HEADER_SIZE
        space.write(addr, bytes([space.read(addr, 1)[0] ^ 0x01]))
        with pytest.raises(ChecksumError, match="mismatch"):
            BlockReader(space, BASE, 4096, verify_checksum=True)
        # A non-verifying reader (the pre-fault-model behavior) misses it.
        BlockReader(space, BASE, 4096)

    def test_checksum_zero_skips_verification(self, space):
        """Hand-built blocks with checksum 0 (the unchecksummed marker)
        stay readable under verification — compatibility with pre-CRC
        peers and tests."""
        length = self.seal_block(space)
        p = Preamble.read(space, BASE)
        Preamble(p.message_count, p.ack_blocks, p.block_length, 0, p.sequence).pack_into(
            space, BASE
        )
        BlockReader(space, BASE, 4096, verify_checksum=True)

    def test_ack_and_sequence_patch_outside_checksum(self, space):
        """The transmit path patches ack counts and stamps sequences
        *after* seal; both live outside the body CRC, so the patch must
        not invalidate a verifying receiver."""
        self.seal_block(space, sequence=7)
        p = Preamble.read(space, BASE)
        Preamble(p.message_count, 42, p.block_length, p.checksum, 99).pack_into(
            space, BASE
        )
        r = BlockReader(space, BASE, 4096, verify_checksum=True)
        assert r.preamble.ack_blocks == 42
        assert r.preamble.sequence == 99
