"""Protocol Buffers wire-format primitives.

This module implements the low-level encoding rules of the protobuf wire
format (proto3): base-128 varints, ZigZag encoding for signed integers,
and field tags (field number + wire type); the fixed-width little-endian
scalar encodings are one ``struct`` codec per row of
:mod:`repro.proto.kinds`.  It is the foundation both for the reference
serializer/deserializer in :mod:`repro.proto.serializer` /
:mod:`repro.proto.deserializer` and for the offloaded arena deserializer in
:mod:`repro.offload.arena_deserializer`.

Two decoding paths are provided for varints:

* a scalar path (`read_varint`) decoding one value at a time, mirroring the
  per-element loop a CPU or DPU core runs in the paper's custom
  deserializer; and
* a vectorized batch path (`decode_packed_varints`) built on NumPy — the
  one packed-run kernel every codec tier and the arena deserializer share.

All multi-byte fixed-width values are little-endian, matching the paper's
assumption (§IV-A) that both endpoints are little-endian.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "WireType",
    "MAX_VARINT_LEN",
    "MAX_NESTING_DEPTH",
    "encode_varint",
    "append_varint",
    "read_varint",
    "varint_size",
    "encode_zigzag",
    "decode_zigzag",
    "make_tag",
    "split_tag",
    "read_tag",
    "encode_packed_varints",
    "encode_packed_varints_bulk",
    "decode_packed_varints",
    "write_varint",
    "WireFormatError",
    "TruncatedMessageError",
]

#: Maximum number of bytes a 64-bit varint can occupy.
MAX_VARINT_LEN = 10

_U64_MASK = (1 << 64) - 1


class WireFormatError(ValueError):
    """Raised when a buffer violates the protobuf wire format."""


class TruncatedMessageError(WireFormatError):
    """Raised when a value extends past the end of the buffer."""


#: How deep messages may nest, the outermost counting as 1 (protobuf's
#: default).  Every decoder rejects deeper with its wire-format error —
#: not with whatever the interpreter stack at the call allows.
MAX_NESTING_DEPTH = 100


class WireType:
    """Protobuf wire types (proto3 subset; groups are not supported)."""

    VARINT = 0
    FIXED64 = 1
    LENGTH_DELIMITED = 2
    START_GROUP = 3  # rejected on decode
    END_GROUP = 4  # rejected on decode
    FIXED32 = 5

    _VALID = frozenset({0, 1, 2, 5})

    @classmethod
    def is_valid(cls, wire_type: int) -> bool:
        return wire_type in cls._VALID


# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------

# Precomputed single-byte encodings: the overwhelmingly common case for
# tags and small field values (the paper's "Small" message is all of these).
_ONE_BYTE = [bytes([i]) for i in range(128)]


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a base-128 varint.

    Negative values are encoded in 64-bit two's complement (always 10
    bytes), exactly as protobuf encodes negative int32/int64 fields.
    """
    value &= _U64_MASK
    if value < 128:
        return _ONE_BYTE[value]
    out = bytearray()
    while value >= 128:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def append_varint(buf: bytearray, value: int) -> None:
    """Append the varint encoding of ``value`` to ``buf`` without an
    intermediate ``bytes`` object (hot path for the serializer)."""
    value &= _U64_MASK
    while value >= 128:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def write_varint(buf, pos: int, value: int) -> int:
    """Write the varint encoding of ``value`` into ``buf`` at ``pos``.

    Returns the position past the last byte written.  ``buf`` must be a
    writable buffer (``bytearray`` or a ``memoryview`` of one); unlike
    :func:`append_varint` this targets preallocated destinations, which is
    what lets generated encoders emit straight into registered send buffers.
    """
    value &= _U64_MASK
    while value >= 128:
        buf[pos] = (value & 0x7F) | 0x80
        pos += 1
        value >>= 7
    buf[pos] = value
    return pos + 1


def read_varint(buf, pos: int) -> tuple[int, int]:
    """Decode one varint from ``buf`` starting at ``pos``.

    Returns ``(value, new_pos)``.  Raises :class:`TruncatedMessageError` if
    the buffer ends mid-varint and :class:`WireFormatError` if the varint is
    longer than 10 bytes (malformed).
    """
    result = 0
    shift = 0
    end = len(buf)
    while True:
        if pos >= end:
            raise TruncatedMessageError("varint extends past end of buffer")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift == 63 and byte > 1:
                raise WireFormatError("varint exceeds 64 bits")
            return result & _U64_MASK, pos
        shift += 7
        if shift >= 64:
            raise WireFormatError("varint longer than 10 bytes")


def varint_size(value: int) -> int:
    """Number of bytes the varint encoding of ``value`` occupies."""
    value &= _U64_MASK
    size = 1
    while value >= 128:
        value >>= 7
        size += 1
    return size


# ---------------------------------------------------------------------------
# ZigZag (sint32 / sint64)
# ---------------------------------------------------------------------------


def encode_zigzag(value: int, bits: int = 64) -> int:
    """Map a signed integer to an unsigned one with small absolute values
    mapping to small results (protobuf ``sint32``/``sint64``)."""
    if bits not in (32, 64):
        raise ValueError("bits must be 32 or 64")
    mask = (1 << bits) - 1
    return ((value << 1) ^ (value >> (bits - 1))) & mask


def decode_zigzag(value: int) -> int:
    """Inverse of :func:`encode_zigzag` (width-independent)."""
    return (value >> 1) ^ -(value & 1)


# ---------------------------------------------------------------------------
# Tags
# ---------------------------------------------------------------------------


def make_tag(field_number: int, wire_type: int) -> int:
    """Combine a field number and wire type into a tag value."""
    if field_number < 1 or field_number > (1 << 29) - 1:
        raise WireFormatError(f"field number {field_number} out of range")
    return (field_number << 3) | wire_type


def split_tag(tag: int) -> tuple[int, int]:
    """Split a tag into ``(field_number, wire_type)``."""
    return tag >> 3, tag & 0x7


def read_tag(buf, pos: int) -> tuple[int, int, int]:
    """Read a tag varint; returns ``(field_number, wire_type, new_pos)``.

    Validates that the field number is nonzero and the wire type is one we
    decode (groups are rejected, as in proto3).
    """
    tag, pos = read_varint(buf, pos)
    field_number, wire_type = split_tag(tag)
    if field_number == 0:
        raise WireFormatError("field number 0 is invalid")
    if not WireType.is_valid(wire_type):
        raise WireFormatError(f"unsupported wire type {wire_type}")
    return field_number, wire_type, pos


# ---------------------------------------------------------------------------
# Packed repeated varints (the paper's "x512 Ints" workload)
# ---------------------------------------------------------------------------


def encode_packed_varints(values: Iterable[int]) -> bytes:
    """Encode an iterable of unsigned integers as a packed varint run
    (the payload of a packed ``repeated uint32/uint64`` field)."""
    out = bytearray()
    for v in values:
        append_varint(out, v)
    return bytes(out)


#: ``_VARINT_THRESHOLDS[k-1] = 2**(7k)``: a value needs one more byte for
#: every threshold it reaches.  ``_VARINT_SHIFTS[k] = 7k``.
_VARINT_THRESHOLDS = np.array(
    [1 << (7 * k) for k in range(1, MAX_VARINT_LEN)], dtype=np.uint64
)
_VARINT_SHIFTS = np.arange(MAX_VARINT_LEN, dtype=np.uint64) * np.uint64(7)
_VARINT_COLUMNS = np.arange(MAX_VARINT_LEN)


def encode_packed_varints_bulk(values: np.ndarray) -> bytes:
    """Encode a ``uint64`` NumPy array as a packed varint run.

    The vectorized mirror of :func:`decode_packed_varints`, in four steps:

    1. *lengths* — one ``searchsorted`` against the nine base-128 digit
       boundaries gives each value's index of its last digit;
    2. *digits* — one broadcast shift lays every value's digits out as an
       ``(n, max_len)`` matrix, cast straight to ``uint8`` (the cast keeps
       the low 8 bits; bit 7 is overwritten next, so no ``& 0x7F``);
    3. *continuation bits* — set on the whole matrix, then cleared on each
       row's last digit (one cell per row);
    4. *compaction* — a single row-major boolean index drops the cells past
       each value's last digit, which concatenates the ragged varints.

    Output is byte-identical to repeated :func:`append_varint` — varints
    are always emitted in canonical (minimal-length) form.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = values.size
    if n == 0:
        return b""
    last = np.searchsorted(_VARINT_THRESHOLDS, values, side="right")
    width = int(last.max()) + 1
    if width == 1:
        return values.astype(np.uint8).tobytes()
    digits = (values[:, None] >> _VARINT_SHIFTS[:width]).astype(np.uint8)
    digits |= 0x80
    digits.ravel()[np.arange(0, n * width, width) + last] &= 0x7F
    # Row-major boolean selection preserves per-value digit order, so the
    # kept digits concatenate into the packed run directly.
    return digits[_VARINT_COLUMNS[:width] <= last[:, None]].tobytes()


def decode_packed_varints(data, count_hint: int | None = None) -> np.ndarray:
    """Decode a packed varint run into a ``uint64`` NumPy array.

    The vectorized analog of the per-element decode loop, in one pass
    regardless of the longest varint in the run: varint boundaries come
    from the continuation bits, every payload byte is shifted into place
    by 7x its distance from its varint's first byte, and each varint's
    bytes are summed with one segmented reduction (``np.add.reduceat``).
    Results — and malformed-input rejections — are identical to repeated
    :func:`read_varint`.
    """
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    if raw.size == 0:
        values = np.empty(0, dtype=np.uint64)
    elif raw[-1] & 0x80:
        raise TruncatedMessageError("packed varint run ends mid-varint")
    else:
        # Positions where a varint ends (continuation bit clear).
        ends = np.flatnonzero(raw < 0x80)
        if ends.size == raw.size:
            values = raw.astype(np.uint64)  # all single-byte
        else:
            values = _assemble_varints(raw, ends)
    if count_hint is not None and len(values) != count_hint:
        raise WireFormatError(
            f"expected {count_hint} packed elements, decoded {len(values)}"
        )
    return values


def _assemble_varints(raw: np.ndarray, ends: np.ndarray) -> np.ndarray:
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts + 1
    longest = int(lengths.max())
    if longest > MAX_VARINT_LEN:
        raise WireFormatError("varint longer than 10 bytes")
    # 10-byte varints may only contribute one bit from their final byte,
    # exactly as the scalar read_varint enforces.
    if longest == MAX_VARINT_LEN and np.any(raw[ends[lengths == MAX_VARINT_LEN]] > 1):
        raise WireFormatError("varint exceeds 64 bits")
    # Byte k of each varint shifts by 7k; k for every byte is its distance
    # from the owning varint's start.
    shift = np.arange(raw.size, dtype=np.uint64)
    shift -= np.repeat(starts, lengths).astype(np.uint64)
    shift *= np.uint64(7)
    payload = (raw & 0x7F).astype(np.uint64)
    payload <<= shift
    return np.add.reduceat(payload, starts)
