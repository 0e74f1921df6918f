"""Reference protobuf deserializer — the *non-offloaded* baseline.

This is the deserializer the host CPU runs in the paper's baseline
scenario: it parses proto3 wire bytes into the dynamic
:class:`~repro.proto.message.Message` objects.  Like protobuf it

* accepts fields in any order,
* lets later occurrences of a singular field overwrite earlier ones
  ("last one wins"),
* merges repeated occurrences of an embedded message field,
* accepts packed and unpacked encodings interchangeably for repeated
  scalars, and
* skips unknown fields by wire type.

The descriptor-walking loop in this module is the ``"interpretive"``
decode path — the oracle.  :func:`parse` / :func:`parse_into` default to
``"generated"``, the per-type straight-line decoders of
:mod:`repro.proto.gen_codec`; both must agree field-for-field, including
preserved unknown bytes, on every input.

The offloaded equivalent, which decodes straight into C++ object layout in
a shared-address-space arena, lives in
:mod:`repro.offload.arena_deserializer`; the two must agree on every valid
input (tested property-based).
"""

from __future__ import annotations

from .descriptor import FieldDescriptor, FieldType, MessageDescriptor
from .kinds import KINDS, wire_type_of
from .message import Message
from .utf8 import Utf8Error, validate_utf8
from .wire_format import (
    MAX_NESTING_DEPTH,
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_zigzag,
    read_tag,
    read_varint,
)

__all__ = [
    "parse",
    "parse_into",
    "skip_field",
    "decode_varint_value",
    "DecodeError",
    "DECODE_MODES",
]

#: Selectable decode paths: "generated" (the default) is the compiled
#: straight-line per-type decoder (:mod:`repro.proto.gen_codec`),
#: "interpretive" the descriptor-walking oracle in this module.
DECODE_MODES = ("generated", "interpretive")

# Bound on first use (gen_codec imports this module, so the import cannot
# be at module level).
_get_gen_decoder = None


class DecodeError(WireFormatError):
    """Message-level decoding failure (wraps wire-format errors with the
    message type and field context)."""


def decode_varint_value(kind: FieldType, raw: int):
    """The 64 raw bits of a varint -> the value of a ``kind`` field.

    The oracle's hand-written statement of the rule (the reference and
    the arena interpretive decoders both use it); the generated decoders
    paste :data:`repro.proto.kinds.KINDS` instead.  As in the C++ parser,
    a 32-bit kind keeps the low 32 bits before anything else, so the
    result always fits the field."""
    if kind is FieldType.BOOL:
        return raw != 0
    if kind is FieldType.UINT64:
        return raw
    if kind is FieldType.INT64:
        return raw - (1 << 64) if raw >= (1 << 63) else raw
    if kind is FieldType.SINT64:
        return decode_zigzag(raw)
    raw &= 0xFFFFFFFF
    if kind is FieldType.UINT32:
        return raw
    if kind is FieldType.SINT32:
        return decode_zigzag(raw)
    # int32 / enum: sign-extended to 64 bits on the wire
    return raw - (1 << 32) if raw >= (1 << 31) else raw


def _read_scalar(fd: FieldDescriptor, buf, pos: int):
    """Read one element of ``fd`` assuming its natural wire type."""
    kind = KINDS[fd.type]
    if not kind.width:
        raw, pos = read_varint(buf, pos)
        return decode_varint_value(fd.type, raw), pos
    end = pos + kind.width
    if end > len(buf):
        raise TruncatedMessageError(f"{fd.type.value} extends past end of buffer")
    return kind.codec.unpack_from(buf, pos)[0], end


def skip_field(buf, pos: int, wire_type: int, end: int | None = None) -> int:
    """Skip an unknown field's payload; returns the new position.

    ``end`` bounds the skip to the enclosing (sub)message.  Without it a
    corrupt length-delimited or fixed-width unknown field could absorb
    bytes belonging to the *parent* message before the overrun is noticed.
    """
    if end is None:
        end = len(buf)
    if wire_type == WireType.VARINT:
        _, pos = read_varint(buf, pos)
        if pos > end:
            raise TruncatedMessageError("truncated varint while skipping")
        return pos
    if wire_type == WireType.FIXED64:
        if pos + 8 > end:
            raise TruncatedMessageError("truncated fixed64 while skipping")
        return pos + 8
    if wire_type == WireType.FIXED32:
        if pos + 4 > end:
            raise TruncatedMessageError("truncated fixed32 while skipping")
        return pos + 4
    if wire_type == WireType.LENGTH_DELIMITED:
        n, pos = read_varint(buf, pos)
        if pos + n > end:
            raise TruncatedMessageError("truncated length-delimited field while skipping")
        return pos + n
    raise WireFormatError(f"cannot skip wire type {wire_type}")


def _parse_range(msg: Message, buf, pos: int, end: int, depth: int = 1) -> None:
    desc: MessageDescriptor = msg.DESCRIPTOR
    while pos < end:
        tag_start = pos
        field_number, wire_type, pos = read_tag(buf, pos)
        fd = desc.field_by_number(field_number)
        if fd is None:
            pos = skip_field(buf, pos, wire_type, end)
            # proto3 (>= 3.5) semantics: unknown fields are preserved and
            # re-emitted on serialization, not dropped.
            msg._unknown += bytes(buf[tag_start:pos])
            continue
        try:
            pos = _parse_field(msg, fd, wire_type, buf, pos, end, depth)
        except (WireFormatError, Utf8Error) as exc:
            raise DecodeError(
                f"{desc.full_name}.{fd.name}: {exc}"
            ) from exc
    if pos != end:
        raise DecodeError(f"{desc.full_name}: field payload overran submessage end")


def _parse_field(
    msg: Message, fd: FieldDescriptor, wire_type: int, buf, pos: int, end: int, depth: int
) -> int:
    t = fd.type
    if t is FieldType.MESSAGE:
        if wire_type != WireType.LENGTH_DELIMITED:
            raise WireFormatError(f"message field with wire type {wire_type}")
        n, pos = read_varint(buf, pos)
        if pos + n > end:
            raise TruncatedMessageError("submessage extends past parent")
        if depth >= MAX_NESTING_DEPTH:
            raise WireFormatError(f"messages nest deeper than {MAX_NESTING_DEPTH}")
        if fd.is_repeated:
            sub = getattr(msg, fd.name).add()
        else:
            # proto3 merge semantics: repeated occurrences merge into the
            # existing submessage.
            sub = getattr(msg, fd.name)
            msg._values[fd.name] = sub
        _parse_range(sub, buf, pos, pos + n, depth + 1)
        return pos + n

    if t in (FieldType.STRING, FieldType.BYTES):
        if wire_type != WireType.LENGTH_DELIMITED:
            raise WireFormatError(f"{t.value} field with wire type {wire_type}")
        n, pos = read_varint(buf, pos)
        if pos + n > end:
            raise TruncatedMessageError(f"{t.value} extends past end")
        raw = bytes(buf[pos : pos + n])
        if t is FieldType.STRING:
            validate_utf8(raw)
            value = raw.decode("utf-8")
        else:
            value = raw
        if fd.is_repeated:
            getattr(msg, fd.name).append(value)
        else:
            setattr(msg, fd.name, value)
        return pos + n

    # Numeric scalar.
    if fd.is_repeated and wire_type == WireType.LENGTH_DELIMITED:
        # Packed encoding.
        n, pos = read_varint(buf, pos)
        if pos + n > end:
            raise TruncatedMessageError("packed run extends past end")
        run_end = pos + n
        target = getattr(msg, fd.name)
        while pos < run_end:
            value, pos = _read_scalar(fd, buf, pos)
            target.append(value)
        if pos != run_end:
            raise WireFormatError("packed run length mismatch")
        return pos

    if wire_type != wire_type_of(t):
        raise WireFormatError(
            f"field {fd.name}: wire type {wire_type}, expected {wire_type_of(t)}"
        )
    value, pos = _read_scalar(fd, buf, pos)
    if fd.is_repeated:
        getattr(msg, fd.name).append(value)
    else:
        setattr(msg, fd.name, value)
    return pos


def parse_into(msg: Message, data, mode: str | None = None) -> Message:
    """Parse wire bytes into an existing message (merging).

    ``mode`` selects the decode path: ``"generated"`` (also what ``None``
    means) dispatches to the message type's compiled straight-line
    decoder (:mod:`repro.proto.gen_codec`); ``"interpretive"`` runs the
    descriptor-walking loop.
    """
    if mode is None or mode == "generated":
        global _get_gen_decoder
        if _get_gen_decoder is None:
            from .gen_codec import get_gen_decoder

            _get_gen_decoder = get_gen_decoder
        codec = _get_gen_decoder(type(msg).DESCRIPTOR, msg._FACTORY)
        buf = data if isinstance(data, memoryview) else memoryview(
            data if isinstance(data, (bytes, bytearray)) else bytes(data)
        )
        codec.parse(msg, buf, 0, len(buf))
        return msg
    if mode != "interpretive":
        raise ValueError(f"unknown decode mode {mode!r}; expected one of {DECODE_MODES}")
    buf = bytes(data)
    _parse_range(msg, buf, 0, len(buf))
    return msg


def parse(cls: type[Message], data, mode: str | None = None) -> Message:
    """Parse wire bytes into a fresh instance of ``cls``."""
    return parse_into(cls(), data, mode)
