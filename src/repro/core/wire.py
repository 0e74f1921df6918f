"""Block wire format: preamble, per-message headers, payload layout.

Implements Figure 4/5 of the paper: a *block* is the unit written to
remote memory by one RDMA WRITE_WITH_IMM.  It starts with a fixed-size
preamble and contains a sequence of (header, payload) message records.
Everything is aligned for zero-copy processing on the receiving side:
preamble and headers to 8 bytes, payloads to 8 bytes (§IV-A), whole blocks
to 1024 bytes so the bucket index fits the 4-byte immediate (§IV-E).

Layout (little-endian)::

    preamble (16 bytes):
        u16 message_count     # max 2^16 messages per block
        u16 ack_blocks        # response blocks processed since last send
        u32 block_length      # total bytes incl. preamble (validation)
        u32 checksum          # CRC-32 of the block body (everything after
                              # the preamble); 0 = unchecksummed block
        u32 sequence          # per-direction block sequence number
                              # (1-based; 0 = unsequenced block): receivers
                              # drop duplicates and treat gaps as transport
                              # faults — without it, a lost block silently
                              # desynchronizes the mirrored ID pools of
                              # §IV-D and responses pair with the wrong
                              # requests

    header (8 bytes, precedes every message):
        u16 payload_size      # user payload bytes (max 2^16 - 1)
        u16 method_or_id      # request: procedure id; response: request id
        u16 flags             # response status, etc.
        u16 reserved

The request ID is deliberately *not* in request headers — both sides
derive it from the synchronized ID pool (§IV-D).  Response headers carry
the request ID because responses may complete out of order.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "PREAMBLE_SIZE",
    "HEADER_SIZE",
    "PAYLOAD_ALIGN",
    "SIZE_EXT_SIZE",
    "Flags",
    "Preamble",
    "MessageHeader",
    "BlockWriter",
    "BlockReader",
    "ProtocolError",
    "MessageTooLarge",
    "BlockFormatError",
    "ChecksumError",
    "compute_block_checksum",
    "stamp_transmit",
    "bucket_to_offset",
    "offset_to_bucket",
]

PREAMBLE_SIZE = 16
HEADER_SIZE = 8
PAYLOAD_ALIGN = 8
#: 64-bit size-extension word used by LARGE messages (§IV-E)
SIZE_EXT_SIZE = 8

_PREAMBLE = struct.Struct("<HHIII")
_HEADER = struct.Struct("<HHHH")
_SIZE_EXT = struct.Struct("<Q")
# The two preamble words settled at transmit time, outside the body
# checksum, patched in place at their fixed offsets.
_ACK_BLOCKS = struct.Struct("<H")  # at preamble offset 2
_SEQUENCE = struct.Struct("<I")  # at preamble offset 12


class ProtocolError(RuntimeError):
    """Protocol invariant violated."""


class MessageTooLarge(ProtocolError):
    """A payload larger than ``ProtocolConfig.max_message_size``."""


class BlockFormatError(RuntimeError):
    """A received block violates the wire format."""


class ChecksumError(BlockFormatError):
    """The block body does not match its preamble checksum — payload
    corruption in flight (real RDMA leaves end-to-end integrity beyond
    the link CRC to the application; this is that check)."""


def compute_block_checksum(space, addr: int, block_length: int) -> int:
    """CRC-32 of the block *body* — every byte after the preamble.  The
    preamble itself is excluded so the ack counter can be patched at
    transmit time (§IV-D) without resealing; its fields are structurally
    validated by :class:`BlockReader` instead.  Never returns 0 (0 marks
    an unchecksummed block, e.g. one hand-built by tests)."""
    region = space.region_of(addr, block_length)
    return _body_crc(region.buf, addr - region.base, block_length)


def _body_crc(mem, offset: int, block_length: int) -> int:
    body = memoryview(mem)[offset + PREAMBLE_SIZE : offset + block_length]
    return zlib.crc32(body) & 0xFFFFFFFF or 1


def stamp_transmit(mem, offset: int, ack_blocks: int, sequence: int) -> None:
    """Settle the two transmit-time preamble fields of the sealed block at
    ``mem[offset:]``: its ack counter and its sequence number."""
    _ACK_BLOCKS.pack_into(mem, offset + 2, ack_blocks)
    _SEQUENCE.pack_into(mem, offset + 12, sequence)


class Flags:
    """Header flag bits."""

    NONE = 0
    #: response carries an application-level error instead of a payload
    ERROR = 1 << 0
    # 1 << 1 and 1 << 2 are reserved: never sent (docs/PROTOCOL.md §3)
    #: the header's 16-bit size is an overflow marker; the true payload
    #: size sits in a 64-bit extension word before the payload (the §IV-E
    #: "variable-length encoding" escape hatch for large messages —
    #: "larger messages are more likely to be computationally expensive,
    #: making this cost negligible")
    LARGE = 1 << 3
    #: response synthesized by the recovery machinery (deadline expiry or
    #: connection reset) rather than by the peer; always paired with ERROR
    ABORTED = 1 << 4
    #: request payload is serialized protobuf wire bytes, not a
    #: deserialized object — set when a crashed DPU engine fails over to
    #: host-side deserialization (docs/FAULTS.md)
    WIRE_PAYLOAD = 1 << 5
    #: an 8-byte explicit trace-context word precedes the payload
    #: (docs/OBSERVABILITY.md): the opt-in mode that keeps request traces
    #: correlated across replays, when the derived — zero-byte — trace
    #: ids could skew.  Stripped before the handler sees the payload.
    TRACE_CTX = 1 << 6
    #: request payload is a WIRE_FIXED fixed-layout encoding (see
    #: repro.proto.fixed_wire), not standard protobuf wire — set together
    #: with WIRE_PAYLOAD when a crashed DPU engine forwards a fixed-mode
    #: request for host-side deserialization
    FIXED_PAYLOAD = 1 << 7
    #: an 8-byte packed deadline word (absolute µs deadline + priority
    #: lane, repro.runtime.overload) precedes the payload — after the
    #: TRACE_CTX word when both are present (docs/OVERLOAD.md).  Stripped
    #: before the handler sees the payload.
    DEADLINE = 1 << 8
    #: response synthesized because the request's deadline expired before
    #: (or during) processing; always paired with ERROR, payload names
    #: the dropping stage (``stage=host_dispatch`` etc.)
    EXPIRED = 1 << 9
    #: the request's *payload* was rejected (by the host's parser on the
    #: WIRE_PAYLOAD path, by its writer in the backlog); always paired
    #: with ERROR, so the front end can say whose fault it was
    MALFORMED = 1 << 10


def _pack_large_header(mem, offset: int, payload_size: int, method_or_id: int,
                       flags: int) -> None:
    """The large form (§IV-E): overflow marker in the 16-bit size field,
    true size in the extension word behind the header."""
    _HEADER.pack_into(mem, offset, 0xFFFF, method_or_id, flags | Flags.LARGE, 0)
    _SIZE_EXT.pack_into(mem, offset + HEADER_SIZE, payload_size)


def bucket_to_offset(bucket: int, block_alignment: int) -> int:
    """offset = bucket * block_alignment (§IV-E: the immediate carries a
    bucket, the receiver adds its RBuf base)."""
    return bucket * block_alignment


def offset_to_bucket(offset: int, block_alignment: int) -> int:
    if offset % block_alignment:
        raise BlockFormatError(
            f"block offset {offset:#x} not aligned to {block_alignment}"
        )
    return offset // block_alignment


class Preamble(NamedTuple):
    message_count: int
    ack_blocks: int
    block_length: int
    #: CRC-32 of the block body; 0 marks an unchecksummed block.
    checksum: int = 0
    #: per-direction block sequence (1-based); 0 marks an unsequenced
    #: block.  Stamped at transmit time — like the ack counter it lives
    #: outside the body checksum, so patching it never invalidates a
    #: sealed block.
    sequence: int = 0

    def pack_into(self, space, addr: int) -> None:
        _PREAMBLE.pack_into(
            space.view(addr, PREAMBLE_SIZE),
            0,
            self.message_count,
            self.ack_blocks,
            self.block_length,
            self.checksum,
            self.sequence,
        )

    @classmethod
    def read(cls, space, addr: int) -> "Preamble":
        # unpack_from on the registered region's memoryview — no
        # intermediate bytes copy of the header words.
        return cls(*_PREAMBLE.unpack_from(space.view(addr, PREAMBLE_SIZE), 0))


@dataclass(slots=True)
class MessageHeader:
    payload_size: int
    method_or_id: int
    flags: int = Flags.NONE

    def pack_into(self, space, addr: int) -> None:
        _HEADER.pack_into(
            space.view(addr, HEADER_SIZE),
            0,
            self.payload_size,
            self.method_or_id,
            self.flags,
            0,
        )

    @classmethod
    def read(cls, space, addr: int) -> "MessageHeader":
        size, mid, flags, _ = _HEADER.unpack_from(space.view(addr, HEADER_SIZE), 0)
        return cls(size, mid, flags)


class BlockWriter:
    """Builds one block in place inside a send buffer.

    :meth:`put_message` reserves payload space, has the caller's writer
    build the payload directly at the reserved address — this is what
    lets the arena deserializer construct the C++ object *inside* the
    outgoing block with no further copies — and packs the header, in one
    step that happens or leaves the block untouched.  It is the one way
    a message enters a block.

    ``[base_addr, base_addr + capacity)`` is bounds-checked once, here;
    every header and the preamble are then packed straight into the
    region's buffer at offsets inside that span (``space`` may be the
    region itself — an endpoint hands in the send buffer it owns).
    """

    #: header address of the message being written (class-level
    #: default: opening a block stores nothing)
    _open: int | None = None

    def __init__(self, space, base_addr: int, capacity: int) -> None:
        region = space.region_of(base_addr, capacity)
        self.base = base_addr
        self.end = base_addr + capacity
        self.cursor = base_addr + PREAMBLE_SIZE  # first unused byte
        self.message_count = 0
        self._mem = region.buf
        self._origin = region.base  # address of _mem[0]

    @property
    def bytes_used(self) -> int:
        return self.cursor - self.base

    def put_message(self, space, reserve: int, write, method_or_id: int,
                    flags: int = Flags.NONE, words=()) -> int:
        """Put one message into the block; returns its payload size.

        ``reserve`` bytes are set aside behind an 8-aligned header (and
        the §IV-E size-extension word from 2^16 on); each of ``words``
        is a u64 written at their start, then ``write(space, addr)``
        builds the payload behind them and reports its true size — at
        most what it reserved (:class:`ProtocolError`), so the one
        reservation check covers the message.  The cursor moves last: a
        writer that raises or over-reports costs the block nothing."""
        if self._open is not None:
            raise BlockFormatError("block busy: a message is being written")
        header_addr = (self.cursor + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN
        large = reserve >= 1 << 16
        payload_addr = header_addr + (HEADER_SIZE + SIZE_EXT_SIZE if large else HEADER_SIZE)
        if payload_addr + reserve > self.end:
            raise BlockFormatError(
                f"block full: need {reserve} payload bytes, "
                f"{self.end - payload_addr} remain"
            )
        mem, origin = self._mem, self._origin
        self._open = header_addr  # a writer that re-enters finds the block busy
        try:
            addr = payload_addr
            for word in words:
                _SIZE_EXT.pack_into(mem, addr - origin, word & 0xFFFFFFFFFFFFFFFF)
                addr += 8
            actual = addr - payload_addr + write(space, addr)
        finally:
            self._open = None
        if actual > reserve:
            raise ProtocolError(f"writer produced {actual} > reserved {reserve}")
        if large:
            _pack_large_header(mem, header_addr - origin, actual, method_or_id, flags)
        else:
            _HEADER.pack_into(mem, header_addr - origin, actual, method_or_id, flags, 0)
        self.message_count += 1
        self.cursor = payload_addr + actual
        return actual

    def seal(self, ack_blocks: int = 0, sequence: int = 0) -> int:
        """Write the preamble (body checksum included); returns the total
        block length in bytes.  The sequence defaults to 0 (unsequenced)
        because the endpoints stamp it at transmit time, when wire order
        is actually decided."""
        if self._open is not None:
            raise BlockFormatError("cannot seal while a message is being written")
        length = self.cursor - self.base
        offset = self.base - self._origin
        crc = _body_crc(self._mem, offset, length)
        _PREAMBLE.pack_into(
            self._mem, offset, self.message_count, ack_blocks, length, crc, sequence)
        return length


@dataclass(slots=True)
class ReceivedMessage:
    """One message as seen by the receiving side — payload referenced in
    place (zero copy), not extracted."""

    header: MessageHeader
    payload_addr: int
    #: true payload size (the extension word's, for LARGE messages)
    payload_size: int


class BlockReader:
    """Parses a received block in place.

    The preamble is read once, here; after the length check
    ``[base_addr, base_addr + block_length)`` is bounds-checked once and
    every header is unpacked straight from the region's buffer (``space``
    may be the region itself — an endpoint hands in the receive buffer
    it owns).

    With ``verify_checksum=True`` the body CRC is recomputed and compared
    against the preamble's (skipped for checksum 0, the unchecksummed
    marker): the endpoints verify (after their sequence check, via
    :meth:`verify_checksum`) so in-flight payload corruption surfaces as
    a :class:`ChecksumError` instead of a downstream parse failure or —
    worse — a silently wrong object.
    """

    def __init__(
        self, space, base_addr: int, max_length: int, verify_checksum: bool = False
    ) -> None:
        region = space.region_of(base_addr, PREAMBLE_SIZE)
        self.base = base_addr
        self._mem = region.buf
        self._origin = region.base  # address of _mem[0]
        # built as the tuple it is (no Python-level __new__ per block)
        self.preamble = tuple.__new__(
            Preamble, _PREAMBLE.unpack_from(self._mem, base_addr - region.base))
        length = self.preamble.block_length
        if length < PREAMBLE_SIZE:
            raise BlockFormatError("block length smaller than preamble")
        if length > max_length:
            raise BlockFormatError(
                f"block claims {length} bytes, only {max_length} are addressable"
            )
        if base_addr + length > region.base + region.size:
            region.region_of(base_addr, length)  # raises, naming the span
        if verify_checksum:
            self.verify_checksum()

    def verify_checksum(self) -> None:
        expected = self.preamble.checksum
        if not expected:
            return
        actual = _body_crc(self._mem, self.base - self._origin, self.preamble.block_length)
        if actual != expected:
            raise ChecksumError(
                f"block checksum mismatch: preamble says "
                f"{expected:#010x}, body is {actual:#010x}"
            )

    def records(self) -> list[tuple[int, int, int, int]]:
        """``(method_or_id, flags, payload_addr, payload_size)`` of every
        message, in block order; the whole block is validated before the
        first record is handed out."""
        out = []
        mem, origin = self._mem, self._origin
        cursor = self.base + PREAMBLE_SIZE
        end = self.base + self.preamble.block_length
        for _ in range(self.preamble.message_count):
            header_addr = (cursor + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN
            payload_addr = header_addr + HEADER_SIZE
            if payload_addr > end:
                raise BlockFormatError("header extends past block end")
            payload_size, method_or_id, flags, _ = _HEADER.unpack_from(
                mem, header_addr - origin
            )
            if flags & Flags.LARGE:
                if payload_addr + SIZE_EXT_SIZE > end:
                    raise BlockFormatError("size extension extends past block end")
                (payload_size,) = _SIZE_EXT.unpack_from(mem, payload_addr - origin)
                payload_addr += SIZE_EXT_SIZE
            if payload_addr + payload_size > end:
                raise BlockFormatError("payload extends past block end")
            out.append((method_or_id, flags, payload_addr, payload_size))
            cursor = payload_addr + payload_size
        padded = (cursor + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN
        if padded != end and padded != (end + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN:
            # All messages consumed must land exactly at the declared end
            # (modulo final padding).
            if cursor != end:
                raise BlockFormatError(
                    f"block length mismatch: cursor {cursor:#x}, end {end:#x}"
                )
        return out

    def messages(self) -> list[ReceivedMessage]:
        """:meth:`records` as objects (tests, reset harvest)."""
        return [
            ReceivedMessage(
                MessageHeader(0xFFFF if flags & Flags.LARGE else size, method_or_id, flags),
                payload_addr,
                size,
            )
            for method_or_id, flags, payload_addr, size in self.records()
        ]
