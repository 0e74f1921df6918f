"""Host-side access to offloaded (already deserialized) objects.

The host receives a block whose payload *is* a live C++ object.  Real host
code would simply cast the payload pointer to ``const Msg*``; the Python
analog is :class:`CppMessageView`, which reads fields lazily through the
layout — pointer dereferences resolve through the host address space, so a
view access touches exactly the bytes a C++ field access would.

:func:`read_message` eagerly converts an object back into a dynamic
:class:`~repro.proto.message.Message`, which lets tests assert that the
offloaded path and the reference deserializer agree on every input.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.abi import PRIMITIVES, REPEATED_HEADER, AbiError, MessageLayout, member_primitive
from repro.proto.descriptor import FieldType
from repro.proto.message import Message, MessageFactory

from .adt import TypeUniverse

__all__ = ["CppMessageView", "read_message", "verify_object"]

_POINTER = PRIMITIVES["pointer"].codec


def verify_object(
    universe: TypeUniverse, layout: MessageLayout, addr: int, space=None
) -> None:
    """Check the object's vptr references the expected vtable — the crash
    the paper's default-instance memcpy avoids (§V-B) becomes an explicit
    assertion here.  ``space`` is where the vptr is read from (the
    universe's address space unless the caller already resolved the
    object's region)."""
    vptr = layout.read_vptr(universe.space if space is None else space, addr)
    expected = universe.vtable_address(layout.descriptor)
    if vptr != expected:
        raise AbiError(
            f"{layout.descriptor.full_name} at {addr:#x}: vptr {vptr:#x} != "
            f"vtable {expected:#x} (object corrupt or ABI mismatch)"
        )


class CppMessageView:
    """Zero-copy, read-only view of a C++ message object in memory.

    Field access follows exactly the memory trips host code makes: scalar
    loads at member offsets, ``std::string`` data-pointer dereferences
    (with the SSO fast path), repeated-header + element-array reads, and
    child-pointer chases returning nested views.

    The object is *loaded, not parsed*: its region is resolved once, at
    construction, with one bounds check for ``[addr, addr + sizeof)``, and
    every in-object read (vptr, has-bits, string and repeated headers) is
    served from that region — a singular scalar straight from its buffer
    at the member's fixed offset.  Only a pointer that leaves the
    object — an element array, out-of-line string data, a child — pays a
    further check, and each pays exactly one for its whole span.
    """

    __slots__ = ("_universe", "_layout", "_addr", "_space", "_region", "_offset")

    def __init__(self, universe: TypeUniverse, layout: MessageLayout, addr: int) -> None:
        space = universe.space
        region = space.region_of(addr, layout.sizeof)
        offset = addr - region.base
        # The vptr check of :func:`verify_object`, on the span just proven.
        vptr = _POINTER.unpack_from(region.buf, offset + layout.VPTR_OFFSET)[0]
        if vptr != universe.vtable_address(layout.descriptor):
            verify_object(universe, layout, addr, region)  # raises, naming both
        self._universe = universe
        self._layout = layout
        self._addr = addr
        self._space = space
        self._region = region
        self._offset = offset

    @property
    def address(self) -> int:
        return self._addr

    @property
    def type_name(self) -> str:
        return self._layout.descriptor.full_name

    def has_field(self, name: str) -> bool:
        slot = self._layout.slot(name)
        return self._layout.get_has_bit(self._region, self._addr, slot.has_bit)

    def __getattr__(self, name: str) -> Any:
        load = self._layout.scalar_loads.get(name)
        if load is not None:
            return load[1](self._region.buf, self._offset + load[0])[0]
        slot = self._layout.slot(name)
        fd = slot.field
        addr = self._addr + slot.offset

        if fd.is_repeated:
            return self._read_repeated(fd, addr)
        if fd.type in (FieldType.STRING, FieldType.BYTES):
            return self._read_string(self._region, addr, fd.type is FieldType.STRING)
        # Singular scalars were served above: this is a child pointer.
        ptr = self._region.read_u64(addr)
        child_layout = self._universe.layouts.layout(fd.message_type)
        if ptr == 0:
            # C++ semantics: accessing an unset submessage returns the
            # (immutable) global default instance, never null — the
            # same view a parsed Message gives via auto-vivification.
            ptr = self._universe.default_instance(fd.message_type)
        return CppMessageView(self._universe, child_layout, ptr)

    def _read_string(self, holder, addr: int, text: bool):
        """The ``std::string`` at ``addr`` inside ``holder``, the already
        checked region holding the string object itself.  SSO data lies
        inside that object; out-of-line data is one further dereference,
        decoded straight from the span."""
        sl = self._layout.string_layout
        data_addr, n = sl.locate(holder, addr)
        if n == 0:
            return "" if text else b""
        inline = addr <= data_addr < addr + sl.size
        span = (holder if inline else self._space).view(data_addr, n)
        return str(span, "utf-8") if text else bytes(span)

    def _read_repeated(self, fd, addr: int) -> list:
        elems, count, _cap = REPEATED_HEADER.read(self._region, addr)
        if count == 0:
            return []
        space = self._space
        if fd.type is FieldType.MESSAGE:
            child_layout = self._universe.layouts.layout(fd.message_type)
            return [
                CppMessageView(self._universe, child_layout, ptr)
                for ptr in space.read_array(elems, "Q", count)
            ]
        if fd.type in (FieldType.STRING, FieldType.BYTES):
            size = self._layout.string_layout.size
            holder = space.region_of(elems, size * count)
            text = fd.type is FieldType.STRING
            return [
                self._read_string(holder, elems + size * i, text) for i in range(count)
            ]
        # Scalars: the element array is one span — one bounds check for
        # [elems, elems + count * size), one reinterpretation.
        return list(space.read_array(elems, member_primitive(fd).fmt, count))

    def fields(self) -> Iterator[str]:
        for slot in self._layout.slots:
            yield slot.field.name

    def __repr__(self) -> str:
        return f"<CppMessageView {self.type_name} @ {self._addr:#x}>"


def read_message(
    universe: TypeUniverse,
    factory: MessageFactory,
    full_name: str,
    addr: int,
) -> Message:
    """Eagerly convert an offloaded object back into a dynamic Message
    (test/debug path; applications use :class:`CppMessageView`)."""
    desc = factory.pool.message(full_name)
    layout = universe.layouts.layout(desc)
    view = CppMessageView(universe, layout, addr)
    return _view_to_message(factory, view)


def _view_to_message(factory: MessageFactory, view: CppMessageView) -> Message:
    desc = view._layout.descriptor
    msg = factory.get_class(desc)()
    for slot in view._layout.slots:
        fd = slot.field
        value = getattr(view, fd.name)
        if fd.is_repeated:
            if not value:
                continue
            if fd.type is FieldType.MESSAGE:
                for child in value:
                    getattr(msg, fd.name).append(_view_to_message(factory, child))
            elif fd.type is FieldType.BOOL:
                getattr(msg, fd.name).extend(bool(v) for v in value)
            else:
                getattr(msg, fd.name).extend(value)
            continue
        if fd.type is FieldType.MESSAGE:
            # Presence, not the (never-null) accessor, decides whether the
            # submessage exists in the logical value.
            if view.has_field(fd.name):
                setattr(msg, fd.name, _view_to_message(factory, value))
            continue
        if not view.has_field(fd.name):
            continue
        if fd.type is FieldType.BOOL:
            value = bool(value)
        setattr(msg, fd.name, value)
    return msg
