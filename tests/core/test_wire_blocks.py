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
    ProtocolError,
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


def writes(data: bytes):
    """A payload writer that copies ``data`` to its address and reports
    its length — the shape ``Response.write_to`` and ``enqueue_bytes``
    hand to :meth:`BlockWriter.put_message`."""

    def writer(space, addr: int) -> int:
        if data:
            space.write(addr, data)
        return len(data)

    return writer


def put(w: BlockWriter, space, data: bytes, method_or_id: int, flags: int = 0) -> int:
    return w.put_message(space, len(data), writes(data), method_or_id, flags)


def state(w: BlockWriter) -> tuple[int, int]:
    return w.cursor, w.message_count


class TestWriterReader:
    def test_single_message(self, space):
        w = BlockWriter(space, BASE, 8192)
        assert put(w, space, b"hello", 3) == 5
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
            put(w, space, data, i)
        w.seal()
        r = BlockReader(space, BASE, 8192)
        msgs = r.messages()
        assert [m.payload_size for m in msgs] == [1, 10, 0, 13]
        for m in msgs:
            # Headers 8-byte aligned => payloads 8-byte aligned (§IV-A).
            assert (m.payload_addr - HEADER_SIZE) % PAYLOAD_ALIGN == 0
            assert m.payload_addr % PAYLOAD_ALIGN == 0

    def test_zero_copy_payload_in_place(self, space):
        """The address the writer is handed is inside the block: what it
        writes there needs no later copy."""
        w = BlockWriter(space, BASE, 4096)
        seen = []

        def writer(where, addr):
            seen.append(addr)
            where.write_u64(addr, 0x1122334455667788)
            return 8

        w.put_message(space, 8, writer, 0)
        w.seal()
        assert BASE < seen[0] < BASE + 4096
        msg = BlockReader(space, BASE, 4096).messages()[0]
        assert msg.payload_addr == seen[0]
        assert space.read_u64(msg.payload_addr) == 0x1122334455667788

    def test_block_full(self, space):
        """A reservation past the block end is refused before the writer
        runs."""
        w = BlockWriter(space, BASE, 64)
        before = state(w)
        with pytest.raises(BlockFormatError, match="block full"):
            w.put_message(space, 100, pytest.fail, 1)
        assert state(w) == before

    def test_commit_past_block_end_rejected(self, space):
        """The size a payload writer reports back is checked against its
        reservation, not trusted: headers are stored unchecked after it.
        An over-report is refused and leaves the block as it was."""
        w = BlockWriter(space, BASE, 64)
        put(w, space, b"first", 1)
        before = state(w)
        with pytest.raises(ProtocolError, match="reserved 8"):
            w.put_message(space, 8, lambda where, addr: 100, 2)
        assert state(w) == before
        w.seal()
        assert [m.payload_size for m in BlockReader(space, BASE, 64).messages()] == [5]

    def test_region_stands_in_for_the_space(self, space):
        """An endpoint hands the buffer it owns straight to the writer
        and the reader; the block bytes are the same either way."""
        region = space.region_of(BASE)
        images = []
        for where in (space, region):
            region.fill(BASE, 256)
            w = BlockWriter(where, BASE, 256)
            seen = []

            def writer(target, addr):
                seen.append(addr)
                target.write(addr, b"hello")
                return 5

            w.put_message(where, 5, writer, 3, Flags.ERROR)
            length = w.seal(ack_blocks=2, sequence=7)
            r = BlockReader(where, BASE, 256, verify_checksum=True)
            assert r.records() == [(3, Flags.ERROR, seen[0], 5)]
            images.append(space.read(BASE, length))
        assert images[0] == images[1]

    def test_double_begin(self, space):
        """A writer that re-enters put_message finds the block busy; the
        outer message fails with it and the block is left as it was."""
        w = BlockWriter(space, BASE, 1024)
        before = state(w)

        def reentrant(where, addr):
            put(w, where, b"inner", 2)
            return 0

        with pytest.raises(BlockFormatError, match="busy"):
            w.put_message(space, 8, reentrant, 1)
        assert state(w) == before
        put(w, space, b"next", 3)
        w.seal()
        assert [m.header.method_or_id for m in BlockReader(space, BASE, 1024).messages()] == [3]

    def test_abort_message(self, space):
        """A writer that raises leaves the cursor and the message count
        unchanged; the next message lands where it would have."""
        w = BlockWriter(space, BASE, 1024)
        put(w, space, b"one", 1)
        before = state(w)

        def raising(where, addr):
            where.write(addr, b"garbage!")
            raise ValueError("payload rejected")

        with pytest.raises(ValueError):
            w.put_message(space, 8, raising, 2)
        assert state(w) == before
        put(w, space, b"abcd", 3)
        w.seal()

        clean = AddressSpace()
        clean.map(MemoryRegion(BASE, 1024, "clean"))
        twin = BlockWriter(clean, BASE, 1024)
        put(twin, clean, b"one", 1)
        put(twin, clean, b"abcd", 3)
        twin.seal()
        msgs = BlockReader(space, BASE, 1024).messages()
        assert [(m.header.method_or_id, m.payload_addr) for m in msgs] == [
            (m.header.method_or_id, m.payload_addr)
            for m in BlockReader(clean, BASE, 1024).messages()
        ]
        assert space.read(msgs[1].payload_addr, 4) == b"abcd"

    def test_seal_with_open_message_rejected(self, space):
        """A writer cannot seal the block it is writing into."""
        w = BlockWriter(space, BASE, 1024)

        def sealing(where, addr):
            w.seal()
            return 0

        with pytest.raises(BlockFormatError, match="cannot seal"):
            w.put_message(space, 8, sealing, 1)
        assert state(w) == (BASE + PREAMBLE_SIZE, 0)

    def test_payload_size_limit_without_large_reservation(self, space):
        """A message reserved small cannot report a 2^16+ size — it lacks
        the extension word — so the writer's claim is refused."""
        w = BlockWriter(space, BASE, 1 << 18)
        before = state(w)
        with pytest.raises(ProtocolError, match="65536 > reserved 65535"):
            w.put_message(space, (1 << 16) - 1, lambda where, addr: 1 << 16, 0)
        assert state(w) == before

    def test_large_message_form(self, space):
        """§IV-E extension: the reservation picks the form.  Reserving
        >= 2^16 bytes switches to the LARGE form (marker size + 64-bit
        extension word) even when the writer then reports less."""
        big = bytes(range(256)) * 300  # 76 800 bytes
        w = BlockWriter(space, BASE, 1 << 18)
        put(w, space, big, method_or_id=9)
        w.put_message(space, 1 << 16, writes(b"short"), 10)
        w.put_message(space, (1 << 16) - 1, writes(b"small"), 11)
        w.seal()
        msgs = BlockReader(space, BASE, 1 << 18).messages()
        assert len(msgs) == 3
        assert [bool(m.header.flags & Flags.LARGE) for m in msgs] == [True, True, False]
        assert [m.payload_size for m in msgs] == [len(big), 5, 5]
        assert space.read(msgs[0].payload_addr, len(big)) == big
        assert space.read(msgs[1].payload_addr, 5) == b"short"

    def test_large_and_small_messages_mix(self, space):
        w = BlockWriter(space, BASE, 1 << 18)
        put(w, space, b"tiny", 1)
        put(w, space, b"B" * 70000, 2)
        put(w, space, b"ok", 3)
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
        put(w, space, bytes(16), 0)
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
            put(w, space, data, i % 65536, Flags.ERROR if i % 3 == 0 else 0)
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
        put(w, space, payload, 1)
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
