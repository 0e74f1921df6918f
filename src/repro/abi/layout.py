"""Itanium-style object layout for generated message classes.

Computes, for each message descriptor under a given :class:`AbiConfig`, the
byte-exact layout of the corresponding C++ class: ``sizeof``, ``alignof``
and ``offsetof`` of every member — the three quantities the paper's
binary-compatibility definition is stated in (§V-A).

The modeled class mirrors what protoc-generated C++ code (and the paper's
custom deserializer) works with::

    class Msg : public MessageLite {        // -> vptr at offset 0
        uint32_t _has_bits_[k];             // field-presence bitfield
        uint32_t _cached_size_;             // serialized-size cache
        <members in field-number order>     // the user-visible fields
    };

Member representations:

====================  =========================================
proto field           C++ member
====================  =========================================
bool                  ``bool`` (1 byte)
(s/u)int32, enum,
fixed32, float        4-byte scalar
(s/u)int64,
fixed64, double       8-byte scalar
string / bytes        ``std::string`` (layout per stdlib)
message               pointer to child object (arena-allocated)
repeated T            16-byte pointer/size/capacity header
====================  =========================================

Layout follows the Itanium rules for standard-layout-ish classes: members
are placed in order at the next offset aligned for their type; the class
alignment is the max member alignment (≥ 8 because of the vptr); the class
size is rounded up to its alignment.  Both gcc and clang follow these rules
on x86-64 and AArch64, which is the basis of the paper's cross-ISA
compatibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.proto.descriptor import FieldDescriptor, FieldType, MessageDescriptor
from repro.proto.kinds import KINDS

from .cpp_types import (
    POINTER_SIZE,
    REPEATED_HEADER,
    AbiConfig,
    AbiError,
    PrimitiveType,
    PRIMITIVES,
    StringLayout,
    string_layout_for,
)

__all__ = ["FieldSlot", "MessageLayout", "LayoutCache", "MEMBER_PRIMITIVE", "member_primitive"]


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


#: Proto scalar type -> in-object primitive (size, alignment, little-endian
#: ``struct`` codec): the :data:`repro.proto.kinds.KINDS` row's format
#: character, looked up among the C++ primitives.
_BY_FORMAT = {p.fmt: p for name, p in PRIMITIVES.items() if name != "pointer"}
MEMBER_PRIMITIVE: dict[FieldType, PrimitiveType] = {
    kind: _BY_FORMAT[row.fmt] for kind, row in KINDS.items()
}


def member_primitive(fd: FieldDescriptor) -> PrimitiveType:
    """The primitive representation of one element of field ``fd``."""
    try:
        return MEMBER_PRIMITIVE[fd.type]
    except KeyError:
        raise AbiError(f"field {fd.name}: {fd.type.value} has no primitive member") from None


@dataclass(frozen=True)
class FieldSlot:
    """Placement of one field inside the object."""

    field: FieldDescriptor
    offset: int
    size: int
    align: int
    #: index of this field's presence bit in ``_has_bits_``
    has_bit: int

    @property
    def kind(self) -> str:
        if self.field.is_repeated:
            return "repeated"
        if self.field.type in (FieldType.STRING, FieldType.BYTES):
            return "string"
        if self.field.type is FieldType.MESSAGE:
            return "message"
        return "scalar"


class MessageLayout:
    """The computed layout of one message class under one ABI."""

    VPTR_OFFSET = 0

    def __init__(self, descriptor: MessageDescriptor, abi: AbiConfig) -> None:
        self.descriptor = descriptor
        self.abi = abi
        self.string_layout: StringLayout = string_layout_for(abi)

        fields = descriptor.fields_sorted()
        self.has_bit_words = max(1, (len(fields) + 31) // 32)

        offset = POINTER_SIZE  # vptr
        self.hasbits_offset = offset
        offset += 4 * self.has_bit_words
        self.cached_size_offset = offset
        offset += 4

        max_align = POINTER_SIZE
        slots: list[FieldSlot] = []
        for has_bit, fd in enumerate(fields):
            size, align = self._member_size_align(fd)
            offset = _align_up(offset, align)
            slots.append(FieldSlot(fd, offset, size, align, has_bit))
            offset += size
            max_align = max(max_align, align)

        self.alignof = max_align
        self.sizeof = _align_up(offset, max_align)
        self._slots = slots
        self._by_name = {s.field.name: s for s in slots}
        self._by_number = {s.field.number: s for s in slots}
        #: singular scalar members, name -> (offset, unpack_from): a host
        #: read of one is a load at a fixed offset of an object whose
        #: bounds were checked when the view was built
        self.scalar_loads = {
            s.field.name: (s.offset, member_primitive(s.field).codec.unpack_from)
            for s in slots
            if s.kind == "scalar"
        }

    def _member_size_align(self, fd: FieldDescriptor) -> tuple[int, int]:
        if fd.is_repeated:
            return REPEATED_HEADER.size, REPEATED_HEADER.align
        if fd.type in (FieldType.STRING, FieldType.BYTES):
            return self.string_layout.size, self.string_layout.align
        if fd.type is FieldType.MESSAGE:
            return POINTER_SIZE, POINTER_SIZE
        prim = member_primitive(fd)
        return prim.size, prim.align

    # -- queries -------------------------------------------------------------

    @property
    def slots(self) -> list[FieldSlot]:
        return list(self._slots)

    def slot(self, name: str) -> FieldSlot:
        try:
            return self._by_name[name]
        except KeyError:
            raise AbiError(f"{self.descriptor.full_name}: no field {name!r}") from None

    def slot_by_number(self, number: int) -> FieldSlot | None:
        return self._by_number.get(number)

    def offsetof(self, name: str) -> int:
        return self.slot(name).offset

    # -- has-bits ------------------------------------------------------------

    def set_has_bit(self, space, obj_addr: int, has_bit: int) -> None:
        word_addr = obj_addr + self.hasbits_offset + 4 * (has_bit // 32)
        word = space.read_u32(word_addr)
        space.write_u32(word_addr, word | (1 << (has_bit % 32)))

    def get_has_bit(self, space, obj_addr: int, has_bit: int) -> bool:
        word_addr = obj_addr + self.hasbits_offset + 4 * (has_bit // 32)
        return bool(space.read_u32(word_addr) >> (has_bit % 32) & 1)

    # -- vptr ----------------------------------------------------------------

    def write_vptr(self, space, obj_addr: int, vtable_addr: int) -> None:
        space.write_u64(obj_addr + self.VPTR_OFFSET, vtable_addr)

    def read_vptr(self, space, obj_addr: int) -> int:
        return space.read_u64(obj_addr + self.VPTR_OFFSET)

    def __repr__(self) -> str:
        return (
            f"MessageLayout({self.descriptor.full_name}, sizeof={self.sizeof}, "
            f"alignof={self.alignof}, {len(self._slots)} fields)"
        )


class LayoutCache:
    """Computes and memoizes layouts for one ABI configuration."""

    def __init__(self, abi: AbiConfig) -> None:
        self.abi = abi
        self._cache: dict[str, MessageLayout] = {}

    def layout(self, descriptor: MessageDescriptor) -> MessageLayout:
        hit = self._cache.get(descriptor.full_name)
        if hit is None:
            hit = MessageLayout(descriptor, self.abi)
            self._cache[descriptor.full_name] = hit
        return hit

    def layouts_for_tree(self, root: MessageDescriptor) -> dict[str, MessageLayout]:
        """Layouts for ``root`` and every transitively reachable message."""
        return {m.full_name: self.layout(m) for m in root.transitive_messages()}
