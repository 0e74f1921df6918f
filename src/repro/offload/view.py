"""ADT-driven object access — the DPU's view of C++ message objects.

The host-side :class:`~repro.offload.materialize.CppMessageView` reads
objects through descriptors and layouts.  The DPU has neither — only the
:class:`~repro.offload.adt.Adt` — so this module provides the
descriptor-free equivalents:

* :class:`AdtMessageView` — lazy, zero-copy field access driven purely by
  ADT field entries (offsets, kinds, child indices);
* :func:`serialize_object` — proto3 serialization straight from object
  bytes, walking the object once.  No datapath calls it: responses are
  serialized on the host, as in the paper's prototype (§III-A).  It is
  an oracle — the tests hold it byte-identical to the reference
  serializer, so an object a decoder built says what it holds.

Field emission order is ascending field number, matching the reference
serializer, so DPU-serialized bytes are byte-identical to host-serialized
bytes for the same logical value.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.abi import MEMBER_PRIMITIVE, AbiError, StdLib
from repro.abi.cpp_types import REPEATED_HEADER, LibcxxString, LibstdcxxString
from repro.proto.descriptor import FieldType
from repro.proto.kinds import KINDS
from repro.proto.serializer import scalar_to_varint
from repro.proto.wire_format import WireType, append_varint, make_tag

from .adt import Adt, AdtField
from .arena_deserializer import HASBITS_OFFSET

__all__ = ["AdtMessageView", "serialize_object"]


class AdtMessageView:
    """Read-only, descriptor-free view of an object, from the ADT alone."""

    __slots__ = ("_adt", "_entry", "_index", "_space", "_addr", "_string_layout")

    def __init__(self, adt: Adt, index: int, space, addr: int, verify: bool = True) -> None:
        entry = adt.entry(index)
        if verify:
            vptr = space.read_u64(addr)
            if vptr != entry.vtable_addr:
                raise AbiError(
                    f"{entry.full_name} at {addr:#x}: vptr {vptr:#x} != "
                    f"vtable {entry.vtable_addr:#x}"
                )
        object.__setattr__(self, "_adt", adt)
        object.__setattr__(self, "_entry", entry)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_addr", addr)
        object.__setattr__(
            self,
            "_string_layout",
            LibstdcxxString() if adt.stdlib is StdLib.LIBSTDCXX else LibcxxString(),
        )

    @property
    def address(self) -> int:
        return self._addr

    @property
    def type_name(self) -> str:
        return self._entry.full_name

    def has_bit(self, f: AdtField) -> bool:
        word = self._space.read_u32(self._addr + HASBITS_OFFSET + 4 * (f.has_bit // 32))
        return bool(word >> (f.has_bit % 32) & 1)

    def field(self, name: str) -> Any:
        for f in self._entry.fields:
            if f.name == name:
                return self._read_field(f)
        raise AttributeError(f"{self._entry.full_name} has no field {name!r}")

    def __getattr__(self, name: str) -> Any:
        return self.field(name)

    def fields(self) -> Iterator[AdtField]:
        return iter(self._entry.fields)

    # -- readers ---------------------------------------------------------------

    def _read_field(self, f: AdtField) -> Any:
        addr = self._addr + f.offset
        if f.repeated:
            return self._read_repeated(f, addr)
        if f.kind in (FieldType.STRING, FieldType.BYTES):
            raw = self._string_layout.read(self._space, addr)
            return raw.decode("utf-8") if f.kind is FieldType.STRING else raw
        if f.kind is FieldType.MESSAGE:
            ptr = self._space.read_u64(addr)
            if ptr == 0:
                return None
            return AdtMessageView(self._adt, f.child, self._space, ptr)
        prim = MEMBER_PRIMITIVE[f.kind]
        return prim.unpack(self._space.view(addr, prim.size))

    def _read_repeated(self, f: AdtField, addr: int) -> list:
        space = self._space
        elems, count, _ = REPEATED_HEADER.read(space, addr)
        if count == 0:
            return []
        if f.kind is FieldType.MESSAGE:
            return [
                AdtMessageView(self._adt, f.child, space, ptr)
                for ptr in space.read_array(elems, "Q", count)
            ]
        if f.kind in (FieldType.STRING, FieldType.BYTES):
            sl = self._string_layout
            out = []
            for i in range(count):
                raw = sl.read(space, elems + sl.size * i)
                out.append(raw.decode("utf-8") if f.kind is FieldType.STRING else raw)
            return out
        # Scalars: one bounds check for the whole element span, one unpack.
        return list(space.read_array(elems, MEMBER_PRIMITIVE[f.kind].fmt, count))

    def __repr__(self) -> str:
        return f"<AdtMessageView {self.type_name} @ {self._addr:#x}>"


# ---------------------------------------------------------------------------
# Serialization straight from object bytes (an oracle; no datapath calls it)
# ---------------------------------------------------------------------------


def serialize_object(adt: Adt, index: int, space, addr: int) -> bytes:
    """Serialize an in-memory object to proto3 wire bytes.

    Byte-identical to serializing the equivalent dynamic Message: fields
    ascend by number; proto3 default-valued scalars are elided (presence
    comes from the has-bits AND a default-value check, matching the
    reference serializer's semantics); packed encoding for repeated
    numerics.
    """
    view = AdtMessageView(adt, index, space, addr)
    out = bytearray()
    for f in sorted(view._entry.fields, key=lambda f: f.number):
        _emit_field(adt, view, f, out)
    return bytes(out)


def _emit_field(adt: Adt, view: AdtMessageView, f: AdtField, out: bytearray) -> None:
    kind = f.kind
    if f.repeated:
        values = view._read_field(f)
        if not values:
            return
        if kind is FieldType.MESSAGE:
            tag = make_tag(f.number, WireType.LENGTH_DELIMITED)
            for child in values:
                sub = serialize_object(adt, f.child, child._space, child._addr)
                append_varint(out, tag)
                append_varint(out, len(sub))
                out += sub
        elif kind in (FieldType.STRING, FieldType.BYTES):
            tag = make_tag(f.number, WireType.LENGTH_DELIMITED)
            for v in values:
                data = v.encode("utf-8") if isinstance(v, str) else v
                append_varint(out, tag)
                append_varint(out, len(data))
                out += data
        else:
            packed = bytearray()
            for v in values:
                _emit_scalar_payload(kind, v, packed)
            append_varint(out, make_tag(f.number, WireType.LENGTH_DELIMITED))
            append_varint(out, len(packed))
            out += packed
        return

    if kind is FieldType.MESSAGE:
        ptr = view._space.read_u64(view._addr + f.offset)
        if ptr == 0:
            return
        sub = serialize_object(adt, f.child, view._space, ptr)
        append_varint(out, make_tag(f.number, WireType.LENGTH_DELIMITED))
        append_varint(out, len(sub))
        out += sub
        return

    value = view._read_field(f)
    if kind in (FieldType.STRING, FieldType.BYTES):
        data = value.encode("utf-8") if isinstance(value, str) else value
        if not data and not view.has_bit(f):
            return
        if not data:
            return  # proto3: empty string is the default, elided
        append_varint(out, make_tag(f.number, WireType.LENGTH_DELIMITED))
        append_varint(out, len(data))
        out += data
        return

    if not value:
        return  # proto3 zero-default elision (0, 0.0 and False alike)
    append_varint(out, make_tag(f.number, KINDS[kind].wire_type))
    _emit_scalar_payload(kind, value, out)


def _emit_scalar_payload(kind: FieldType, value, out: bytearray) -> None:
    row = KINDS[kind]
    if row.width:
        # fixed-width: the wire encoding is the in-object encoding
        out += row.codec.pack(value)
    else:
        append_varint(out, scalar_to_varint(kind, value))
