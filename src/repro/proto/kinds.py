"""The kind table: what a proto3 numeric scalar *is*, stated once.

One row per numeric :class:`~repro.proto.descriptor.FieldType` — how it
travels (natural wire type, fixed wire width), how it sits in memory (one
format character: the C++ member of :mod:`repro.abi.layout`, the
WIRE_FIXED slot, the repeated-field element and the ``array`` typecode of
:mod:`repro.proto.message` are this one representation) and, for the
eight varint-carried kinds, the raw ↔ value rule in the forms the
*generated* codecs paste into their source.  Every other per-kind table
in ``proto/``, ``offload/`` and ``abi/`` is derived from this one.

The rule itself follows the C++ parser: a varint arrives as 64 raw bits
and every 32-bit kind keeps the low 32 of them *before* anything else —
``sint32`` included (``ZigZagDecode32(static_cast<uint32>(raw))``) — so a
decoded value always fits its member and its ``_INT_RANGES`` entry.

The interpretive oracles read this table's facts (wire type, width,
codec) but not its expressions: they state the rule a second time, by
hand, in :func:`repro.proto.deserializer.decode_varint_value` and
:func:`repro.proto.serializer.scalar_to_varint`, and the differential
suites hold the two statements together.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from .descriptor import FieldType
from .wire_format import WireType

__all__ = ["Kind", "KINDS", "EXPR_NAMESPACE", "wire_type_of", "bulk_raw"]

_U64 = 0xFFFFFFFFFFFFFFFF

#: What the table's source expressions refer to besides ``raw`` / the
#: value; a generator puts these names into its exec namespace.
EXPR_NAMESPACE = {"_np": np, "_one": np.uint64(1), "_lo32": np.uint64(0xFFFFFFFF)}


@dataclass(frozen=True)
class Kind:
    """One numeric scalar kind."""

    #: wire type of one unpacked element
    wire_type: int
    #: bytes on the wire when fixed-width; 0 = carried as a varint
    width: int
    #: ``struct`` / ``array`` format character of the value in memory
    fmt: str
    #: raw varint -> value: a source expression over the int ``raw`` ...
    from_raw: str = ""
    #: ... and over a ``uint64`` ndarray ``raw`` (gives an array of ``dtype``)
    from_raw_array: str = ""
    #: value -> raw varint: a source expression over ``{v}``
    to_raw: str = ""
    #: ``fmt`` compiled little-endian, and as a NumPy dtype
    codec: struct.Struct = field(init=False, repr=False, compare=False)
    dtype: np.dtype = field(init=False, repr=False, compare=False)
    #: ``to_raw`` as a callable, for the short packed runs that loop
    to_raw_fn: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "codec", struct.Struct("<" + self.fmt))
        object.__setattr__(self, "dtype", np.dtype("<" + self.fmt))
        # Compiled from the one expression so the two cannot drift.
        fn = eval("lambda v: " + self.to_raw.format(v="v")) if self.to_raw else None
        object.__setattr__(self, "to_raw_fn", fn)


_V, _F32, _F64 = WireType.VARINT, WireType.FIXED32, WireType.FIXED64
# int32 / int64 / enum negatives travel as 64-bit two's complement.
_TWOS = "({v} & 0xFFFFFFFFFFFFFFFF)"
_LOW32_SIGNED = "((raw & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000"
_LOW32_SIGNED_ARRAY = "raw.astype(_np.uint32).astype(_np.int32)"

KINDS: dict[FieldType, Kind] = {
    FieldType.DOUBLE: Kind(_F64, 8, "d"),
    FieldType.FLOAT: Kind(_F32, 4, "f"),
    FieldType.FIXED32: Kind(_F32, 4, "I"),
    FieldType.FIXED64: Kind(_F64, 8, "Q"),
    FieldType.SFIXED32: Kind(_F32, 4, "i"),
    FieldType.SFIXED64: Kind(_F64, 8, "q"),
    FieldType.BOOL: Kind(_V, 0, "?", "raw != 0", "raw != 0", "(1 if {v} else 0)"),
    FieldType.UINT32: Kind(_V, 0, "I", "raw & 0xFFFFFFFF", "raw.astype(_np.uint32)", _TWOS),
    FieldType.UINT64: Kind(_V, 0, "Q", "raw", "raw", _TWOS),
    FieldType.INT32: Kind(_V, 0, "i", _LOW32_SIGNED, _LOW32_SIGNED_ARRAY, _TWOS),
    FieldType.ENUM: Kind(_V, 0, "i", _LOW32_SIGNED, _LOW32_SIGNED_ARRAY, _TWOS),
    FieldType.INT64: Kind(
        _V, 0, "q",
        "(raw ^ 0x8000000000000000) - 0x8000000000000000",
        "raw.astype(_np.int64)",
        _TWOS,
    ),
    # ZigZag: truncate to the member width first, then decode.
    FieldType.SINT32: Kind(
        _V, 0, "i",
        "((raw & 0xFFFFFFFF) >> 1) ^ -(raw & 1)",
        "((raw & _lo32) >> _one).astype(_np.int32) ^ -(raw & _one).astype(_np.int32)",
        "((({v} << 1) ^ ({v} >> 31)) & 0xFFFFFFFF)",
    ),
    FieldType.SINT64: Kind(
        _V, 0, "q",
        "(raw >> 1) ^ -(raw & 1)",
        "(raw >> _one).astype(_np.int64) ^ -(raw & _one).astype(_np.int64)",
        "((({v} << 1) ^ ({v} >> 63)) & 0xFFFFFFFFFFFFFFFF)",
    ),
}


def wire_type_of(kind: FieldType) -> int:
    """Wire type of one unpacked element of ``kind``: its row's, or
    ``LENGTH_DELIMITED`` for string, bytes and message."""
    row = KINDS.get(kind)
    return WireType.LENGTH_DELIMITED if row is None else row.wire_type


def bulk_raw(t: FieldType, vals) -> np.ndarray:
    """The array form of ``to_raw``: a list of field values → ``uint64``
    raw varint values, bit-for-bit equal to the scalar conversion."""
    if t in (FieldType.UINT32, FieldType.UINT64, FieldType.BOOL):
        # Half the cost of ``np.asarray`` (6.6 vs 14.2 us at n = 512) given
        # an exact ``list``; the signed and float typecodes are no faster
        # than NumPy (12-13 us), so those kinds stay on ``np.asarray``.
        return np.frombuffer(array("Q", list(vals)), np.uint64)
    a = np.asarray(vals, dtype=np.int64)
    if t is FieldType.SINT32:
        # zigzag32: results fit in 32 bits, so int64 arithmetic is exact.
        return ((a << 1) ^ (a >> 31)).astype(np.uint64)
    if t is FieldType.SINT64:
        # zigzag64 in uint64 arithmetic: (2v mod 2^64) ^ (all-ones if v<0),
        # identical to ((v<<1) ^ (v>>63)) & MASK64 without int64 overflow.
        u = a.view(np.uint64)
        return (u << np.uint64(1)) ^ np.where(a < 0, np.uint64(_U64), np.uint64(0))
    # int32/int64/enum: negatives are 64-bit two's complement.
    return a.view(np.uint64)
