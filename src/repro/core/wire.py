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
                              # the preamble; 1 if that is 0); 0 =
                              # unchecksummed block
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
    "read_block",
]

PREAMBLE_SIZE = 16
HEADER_SIZE = 8
PAYLOAD_ALIGN = 8
#: 64-bit size-extension word used by LARGE messages (§IV-E)
SIZE_EXT_SIZE = 8

PREAMBLE = struct.Struct("<HHIII")
HEADER = struct.Struct("<HHHH")
SIZE_EXT = struct.Struct("<Q")


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
        PREAMBLE.pack_into(
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
        return cls(*PREAMBLE.unpack_from(space.view(addr, PREAMBLE_SIZE), 0))


@dataclass(slots=True)
class MessageHeader:
    payload_size: int
    method_or_id: int
    flags: int = Flags.NONE

    def pack_into(self, space, addr: int) -> None:
        HEADER.pack_into(
            space.view(addr, HEADER_SIZE),
            0,
            self.payload_size,
            self.method_or_id,
            self.flags,
            0,
        )

    @classmethod
    def read(cls, space, addr: int) -> "MessageHeader":
        size, mid, flags, _ = HEADER.unpack_from(space.view(addr, HEADER_SIZE), 0)
        return cls(size, mid, flags)


class BlockWriter:
    """One block being built in place inside a send buffer: its span,
    cursor and message count.  The endpoint's ``_append`` puts messages
    in, each in one step that happens or leaves the block untouched —
    the caller's writer builds the payload at its reserved address (so
    the arena deserializer constructs the C++ object *inside* the
    outgoing block).  ``[base_addr, base_addr + capacity)`` is
    bounds-checked once, here; headers and the preamble are then packed
    straight into the region's buffer ``_mem`` (first byte at
    ``_origin``; ``space`` may be the region itself)."""

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

    def seal(self, ack_blocks: int = 0, sequence: int = 0) -> int:
        """Write the preamble (body checksum included); returns the total
        block length in bytes.  An endpoint packs it itself, once, as it
        posts the block (tests, and the client's reset harvest, seal)."""
        if self._open is not None:
            raise BlockFormatError("cannot seal while a message is being written")
        length = self.cursor - self.base
        offset = self.base - self._origin
        crc = zlib.crc32(memoryview(self._mem)[offset + PREAMBLE_SIZE:offset + length]) or 1
        PREAMBLE.pack_into(
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


def read_block(region, base_addr: int, last_seq, verify: bool):
    """Open the block at ``base_addr`` in ``region`` (the receive buffer
    it landed in) in one call: ``(preamble, records)``, a record being
    ``(method_or_id, flags, payload_addr, payload_size)``.  Checked in
    order: the preamble inside the region, a length that fits it; a
    sequence neither 0 nor ``last_seq + 1`` (None: any) returns records
    None, the body unread; with ``verify``, the body CRC
    (:class:`ChecksumError`); every header and payload inside the block."""
    mem, origin = region.buf, region.base
    offset = base_addr - origin
    room = region.size - offset
    if offset < 0 or room < PREAMBLE_SIZE:
        region.region_of(base_addr, PREAMBLE_SIZE)  # raises, naming the span
    # built as the tuple it is (no Python-level __new__ per block)
    preamble = tuple.__new__(Preamble, PREAMBLE.unpack_from(mem, offset))
    count, _, length, checksum, sequence = preamble
    if length < PREAMBLE_SIZE:
        raise BlockFormatError("block length smaller than preamble")
    if length > room:
        raise BlockFormatError(f"block claims {length} bytes, only {room} are addressable")
    if sequence and last_seq is not None and sequence != last_seq + 1:
        return preamble, None
    if verify and checksum:
        actual = zlib.crc32(memoryview(mem)[offset + PREAMBLE_SIZE:offset + length]) or 1
        if actual != checksum:
            raise ChecksumError(
                f"block checksum mismatch: preamble says "
                f"{checksum:#010x}, body is {actual:#010x}"
            )
    records = []
    cursor = base_addr + PREAMBLE_SIZE
    end = base_addr + length
    for _ in range(count):
        header_addr = (cursor + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN
        payload_addr = header_addr + HEADER_SIZE
        if payload_addr > end:
            raise BlockFormatError("header extends past block end")
        payload_size, method_or_id, flags, _ = HEADER.unpack_from(mem, header_addr - origin)
        if flags & Flags.LARGE:
            if payload_addr + SIZE_EXT_SIZE > end:
                raise BlockFormatError("size extension extends past block end")
            (payload_size,) = SIZE_EXT.unpack_from(mem, payload_addr - origin)
            payload_addr += SIZE_EXT_SIZE
        if payload_addr + payload_size > end:
            raise BlockFormatError("payload extends past block end")
        records.append((method_or_id, flags, payload_addr, payload_size))
        cursor = payload_addr + payload_size
    padded = (cursor + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN
    if padded != end and padded != (end + PAYLOAD_ALIGN - 1) & -PAYLOAD_ALIGN:
        # All messages consumed must land exactly at the declared end
        # (modulo final padding).
        if cursor != end:
            raise BlockFormatError(f"block length mismatch: cursor {cursor:#x}, end {end:#x}")
    return preamble, records


class BlockReader:
    """A block parsed in place, whole, at construction: :func:`read_block`
    with its sequence unchecked and ``verify_checksum`` for the CRC, and
    a length of at most ``max_length`` (tests, and the client's reset
    harvest of its own send buffer; ``space`` may be the region itself).
    """

    def __init__(
        self, space, base_addr: int, max_length: int, verify_checksum: bool = False
    ) -> None:
        region = space.region_of(base_addr, PREAMBLE_SIZE)
        length = PREAMBLE.unpack_from(region.buf, base_addr - region.base)[2]
        if length > max_length:
            raise BlockFormatError(
                f"block claims {length} bytes, only {max_length} are addressable"
            )
        self.preamble, self._records = read_block(region, base_addr, None, verify_checksum)

    def records(self) -> list[tuple[int, int, int, int]]:
        """``(method_or_id, flags, payload_addr, payload_size)`` of every
        message, in block order."""
        return self._records

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
