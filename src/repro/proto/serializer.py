"""Reference protobuf serializer (the "sender side" of the datapath).

Serializes the dynamic :class:`~repro.proto.message.Message` objects into
proto3 wire format.  Output is byte-identical to what protoc-generated C++
code emits for the same logical value with fields written in ascending
field-number order, so the offloaded deserializer operates on authentic
wire bytes.

Two encode paths are available, selected per call (``mode=``) or by the
``encode_mode=`` argument of the component that encodes:

* ``"generated"`` (default) — per-type straight-line encoders
  (:mod:`repro.proto.gen_codec`) that size once and emit straight into
  caller-provided buffers; and
* ``"interpretive"`` — the descriptor-walking oracle in this module,
  kept selectable for differential testing.

Both must produce byte-identical output for every message.
"""

from __future__ import annotations

from .descriptor import FieldDescriptor, FieldType
from .kinds import KINDS, wire_type_of
from .message import Message
from .wire_format import (
    WireType,
    append_varint,
    encode_varint,
    encode_zigzag,
    make_tag,
    varint_size,
)

__all__ = [
    "serialize",
    "serialize_into",
    "serialized_size",
    "prepare_emit",
    "emit_writer",
    "check_room",
    "ENCODE_MODES",
    "EncodeError",
]

#: Selectable encode paths: "generated" (the default) is the compiled
#: straight-line per-type encoder (:mod:`repro.proto.gen_codec`),
#: "interpretive" the walking oracle.
ENCODE_MODES = ("generated", "interpretive")


class EncodeError(ValueError):
    """Raised when a message cannot be emitted into the destination
    buffer (typically: the reserved space is too small)."""


def check_room(buf, offset: int, size: int) -> None:
    """The one bound on an in-place emit: ``size`` bytes at ``offset`` lie
    inside ``buf``, or :class:`EncodeError` and ``buf`` is untouched.
    Every measured message (``SizedMessage``, ``SizedFixed``,
    ``_PreparedBytes``) checks here before its first store, because the
    stores themselves do not: a slice store past the end *grows* a
    ``bytearray``, and a negative index wraps to the tail."""
    if offset < 0 or offset + size > len(buf):
        raise EncodeError(
            f"buffer too small: need {size} bytes at offset {offset}, "
            f"have {len(buf) - offset}"
        )


# Bound on first use (gen_codec imports this module for the tag cache, so
# the import cannot be at module level).
_get_gen_encoder = None


def _encoder_for(msg: Message, mode: str | None):
    """The message type's :class:`~repro.proto.gen_codec.GeneratedEncoder`
    when ``mode`` is ``"generated"`` (or ``None``, the default); ``None``
    when it is ``"interpretive"``."""
    if mode is None or mode == "generated":
        global _get_gen_encoder
        if _get_gen_encoder is None:
            from .gen_codec import get_gen_encoder

            _get_gen_encoder = get_gen_encoder
        return _get_gen_encoder(type(msg).DESCRIPTOR, msg._FACTORY)
    if mode != "interpretive":
        raise ValueError(f"unknown encode mode {mode!r} (expected one of {ENCODE_MODES})")
    return None


def _tag_cache(fd: FieldDescriptor) -> tuple[bytes, bytes, int]:
    """``(natural_tag_bytes, packed_tag_bytes, natural_tag_size)`` for
    ``fd``, encoded once and memoized on the descriptor.

    A field's tag bytes are a pure function of its number and type, so
    re-encoding the tag varint per element (the hottest serializer
    operation for repeated fields) is wasted work; protoc bakes tag
    literals into generated code the same way."""
    cache = getattr(fd, "_tag_cache", None)
    if cache is None:
        natural = encode_varint(make_tag(fd.number, wire_type_of(fd.type)))
        packed = encode_varint(make_tag(fd.number, WireType.LENGTH_DELIMITED))
        cache = fd._tag_cache = (natural, packed, len(natural))
    return cache


def scalar_to_varint(kind: FieldType, value) -> int:
    """A varint-carried field value -> the unsigned 64-bit raw varint.

    The oracle's hand-written statement of the rule (reference encode and
    :func:`repro.offload.view.serialize_object` both use it); the
    generated encoders paste :data:`repro.proto.kinds.KINDS` instead."""
    if kind is FieldType.BOOL:
        return 1 if value else 0
    if kind is FieldType.SINT32:
        return encode_zigzag(value, 32)
    if kind is FieldType.SINT64:
        return encode_zigzag(value, 64)
    # int32/int64/enum: negatives use 64-bit two's complement.
    return value & ((1 << 64) - 1)


def _append_scalar(out: bytearray, fd: FieldDescriptor, value) -> None:
    """Append one element's payload bytes (no tag)."""
    t = fd.type
    kind = KINDS.get(t)
    if kind is None:  # string / bytes; a message is handled by the caller
        data = value.encode("utf-8") if t is FieldType.STRING else value
        append_varint(out, len(data))
        out += data
    elif kind.width:
        out += kind.codec.pack(value)
    else:
        append_varint(out, scalar_to_varint(t, value))


def _append_field(out: bytearray, fd: FieldDescriptor, value) -> None:
    natural_tag, packed_tag, _ = _tag_cache(fd)
    if fd.is_repeated:
        if fd.is_packed and not getattr(fd, "force_unpacked", False):
            out += packed_tag
            packed = bytearray()
            for v in value:
                _append_scalar(packed, fd, v)
            append_varint(out, len(packed))
            out += packed
        else:
            for v in value:
                out += natural_tag
                if fd.type is FieldType.MESSAGE:
                    sub = _serialize_bytes(v)
                    append_varint(out, len(sub))
                    out += sub
                else:
                    _append_scalar(out, fd, v)
        return
    out += natural_tag
    if fd.type is FieldType.MESSAGE:
        sub = _serialize_bytes(value)
        append_varint(out, len(sub))
        out += sub
    else:
        _append_scalar(out, fd, value)


def _serialize_bytes(msg: Message) -> bytes:
    out = bytearray()
    for fd, value in msg.ListFields():
        _append_field(out, fd, value)
    out += msg._unknown  # preserved unknown fields, appended last
    return bytes(out)


def serialize(msg: Message, mode: str | None = None) -> bytes:
    """Serialize ``msg`` to proto3 wire format.

    ``mode`` is "generated" (the default) or "interpretive"; both paths
    emit byte-identical output.
    """
    encoder = _encoder_for(msg, mode)
    if encoder is not None:
        return encoder.serialize(msg)
    return _serialize_bytes(msg)


def serialize_into(msg: Message, buf, offset: int = 0, mode: str | None = None) -> int:
    """Serialize ``msg`` directly into writable buffer ``buf`` at
    ``offset``; returns the end position.

    In generated mode the wire bytes are emitted in place with no
    intermediate ``bytes`` materialization — this is the zero-copy entry
    point the datapath uses to serialize into reserved block/frame space.
    The interpretive path materializes and copies (the baseline being
    measured against).  Raises :class:`EncodeError` if the message does
    not fit.
    """
    return prepare_emit(msg, mode).emit_into(buf, offset)


class _PreparedBytes:
    """Interpretive counterpart of
    :class:`~repro.proto.gen_codec.SizedMessage`: the payload is already
    materialized; ``emit_into`` copies it."""

    __slots__ = ("data", "size")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.size = len(data)

    def emit_into(self, buf, offset: int = 0) -> int:
        check_room(buf, offset, self.size)
        end = offset + self.size
        buf[offset:end] = self.data
        return end

    def to_bytes(self) -> bytes:
        return self.data


def prepare_emit(msg: Message, mode: str | None = None):
    """Size ``msg`` now, emit later: returns an object with ``.size``,
    ``.emit_into(buf, offset) -> end`` and ``.to_bytes()``.

    This is the reserve-then-fill API of the send path: callers reserve
    exactly ``size`` bytes at the destination (block payload slot, frame
    buffer) before any wire byte is produced, then have the encoder emit
    in place.  The message must not be mutated in between.
    """
    encoder = _encoder_for(msg, mode)
    if encoder is not None:
        return encoder.measure(msg)
    return _PreparedBytes(_serialize_bytes(msg))


def emit_writer(msg: Message, mode: str | None = None):
    """``(size, writer)`` for the block datapath: ``writer(space, addr)``
    emits ``msg``'s wire bytes directly into the registered send region
    via ``space.view`` and returns the payload size — the shape
    ``core.endpoint`` expects from ``Response.writer`` / ``enqueue``."""
    sized = prepare_emit(msg, mode)
    size = sized.size
    emit_into = sized.emit_into

    def writer(space, addr: int) -> int:
        emit_into(space.view(addr, size), 0)
        return size

    return size, writer


def serialized_size(msg: Message, mode: str | None = None) -> int:
    """Serialized size in bytes without materializing the output.

    Kept exact (rather than ``len(serialize(msg))``) so the datapath
    simulator can size blocks cheaply; nested messages still require a
    recursive walk, matching protobuf's ``ByteSizeLong`` structure.
    """
    encoder = _encoder_for(msg, mode)
    if encoder is not None:
        return encoder.serialized_size(msg)
    size = len(msg._unknown)
    for fd, value in msg.ListFields():
        # The wire type occupies the tag's low 3 bits, so the natural and
        # packed tag varints always have the same length.
        tag_size = _tag_cache(fd)[2]
        if fd.is_repeated:
            if fd.is_packed and not getattr(fd, "force_unpacked", False):
                payload = sum(_scalar_size(fd, v) for v in value)
                size += tag_size + varint_size(payload) + payload
            else:
                for v in value:
                    size += tag_size + _element_size(fd, v)
        else:
            size += tag_size + _element_size(fd, value)
    return size


def _scalar_size(fd: FieldDescriptor, value) -> int:
    return KINDS[fd.type].width or varint_size(scalar_to_varint(fd.type, value))


def _element_size(fd: FieldDescriptor, value) -> int:
    t = fd.type
    if t is FieldType.STRING:
        n = len(value.encode("utf-8"))
        return varint_size(n) + n
    if t is FieldType.BYTES:
        return varint_size(len(value)) + len(value)
    if t is FieldType.MESSAGE:
        n = serialized_size(value)
        return varint_size(n) + n
    return _scalar_size(fd, value)
