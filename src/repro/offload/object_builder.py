"""Host-side construction of C++ message objects from dynamic messages.

The request path's dual: for *response-serialization offload* the host
must ship a response as an already-built object — with **zero
serialization work on the host** — and let the DPU turn it into wire
bytes for the xRPC client.  :func:`build_object` writes a Python
:class:`~repro.proto.message.Message` into an arena as a byte-exact C++
object (default-instance seed, scalar stores, SSO string crafting,
repeated arrays, recursive children), exactly the representation the
arena deserializer produces for the same logical value.

This is what generated C++ code does natively (the response *is* a C++
object); in our Python world the builder is the bridge from the dynamic
message API to object bytes.
"""

from __future__ import annotations

import struct

from repro.abi import MessageLayout, member_primitive
from repro.abi.cpp_types import REPEATED_HEADER
from repro.memory import Arena
from repro.proto.descriptor import FieldType
from repro.proto.message import Message

from .adt import TypeUniverse

__all__ = ["build_object", "object_size_upper_bound"]


def _align8(n: int) -> int:
    return (n + 7) & ~7


def object_size_upper_bound(universe: TypeUniverse, msg: Message) -> int:
    """Arena bytes :func:`build_object` may need for ``msg``."""
    layout = universe.layouts.layout(msg.DESCRIPTOR)
    total = _align8(layout.sizeof) + 8
    sso = layout.string_layout.sso_capacity
    str_size = layout.string_layout.size
    for fd in msg.DESCRIPTOR.fields:
        value = msg._values.get(fd.name)
        if value is None:
            continue
        values = value if fd.is_repeated else [value]
        if fd.type is FieldType.MESSAGE:
            for child in values:
                total += object_size_upper_bound(universe, child) + 8
            if fd.is_repeated:
                total += 8 * len(values) + 8
        elif fd.type in (FieldType.STRING, FieldType.BYTES):
            for v in values:
                data = v.encode("utf-8") if isinstance(v, str) else v
                if len(data) > sso:
                    total += _align8(len(data) + 1) + 8
            if fd.is_repeated:
                total += str_size * len(values) + 8
        elif fd.is_repeated:
            total += member_primitive(fd).size * len(values) + 8
    return total


def build_object(universe: TypeUniverse, msg: Message, arena: Arena) -> int:
    """Construct ``msg`` as a C++ object inside ``arena``; returns its
    virtual address.  The result is indistinguishable (to the views, the
    materializer, and :func:`~repro.offload.view.serialize_object`) from
    what the arena deserializer builds from the serialized form."""
    desc = msg.DESCRIPTOR
    layout = universe.layouts.layout(desc)
    default_addr = universe.default_instance(desc)
    obj = arena.allocate(layout.sizeof, layout.alignof)
    arena.space.write(obj, universe.space.read(default_addr, layout.sizeof))

    for fd, value in msg.ListFields():
        slot = layout.slot(fd.name)
        addr = obj + slot.offset
        if fd.is_repeated:
            _write_repeated(universe, layout, fd, value, addr, arena)
            layout.set_has_bit(arena.space, obj, slot.has_bit)
            continue
        if fd.type is FieldType.MESSAGE:
            child = build_object(universe, value, arena)
            arena.space.write_u64(addr, child)
        elif fd.type in (FieldType.STRING, FieldType.BYTES):
            data = value.encode("utf-8") if isinstance(value, str) else value
            _write_string(layout, data, addr, arena)
        else:
            arena.space.write(addr, member_primitive(fd).pack(value))
        layout.set_has_bit(arena.space, obj, slot.has_bit)
    return obj


def _write_string(layout: MessageLayout, data: bytes, addr: int, arena: Arena) -> None:
    sl = layout.string_layout
    data_addr = None
    if len(data) > sl.sso_capacity:
        data_addr = arena.allocate(len(data) + 1, alignment=8)
    sl.write(arena.space, addr, data, data_addr)


def _write_repeated(
    universe: TypeUniverse, layout: MessageLayout, fd, values, addr: int, arena: Arena
) -> None:
    count = len(values)
    space = arena.space
    if fd.type is FieldType.MESSAGE:
        children = [build_object(universe, v, arena) for v in values]
        elems = arena.allocate(8 * count, alignment=8)
        space.write(elems, b"".join(c.to_bytes(8, "little") for c in children))
    elif fd.type in (FieldType.STRING, FieldType.BYTES):
        sl = layout.string_layout
        elems = arena.allocate(sl.size * count, alignment=8)
        for i, v in enumerate(values):
            data = v.encode("utf-8") if isinstance(v, str) else v
            _write_string(layout, data, elems + sl.size * i, arena)
    else:
        data = struct.pack(f"<{count}{member_primitive(fd).fmt}", *values)
        elems = arena.allocate(len(data), alignment=8)
        if data:
            space.write(elems, data)
    REPEATED_HEADER.write(space, addr, elems, count)
