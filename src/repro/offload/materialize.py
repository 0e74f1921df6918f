"""Host-side access to offloaded (already deserialized) objects.

The host receives a block whose payload *is* a live C++ object.  Real host
code would simply cast the payload pointer to ``const Msg*``; the Python
analog is :class:`CppMessageView`, which reads fields lazily through the
layout from the region holding its object — a view access touches exactly
the bytes a C++ field access would, and only a pointer that leaves that
region resolves through the host address space.

:func:`read_message` eagerly converts an object back into a dynamic
:class:`~repro.proto.message.Message`, which lets tests assert that the
offloaded path and the reference deserializer agree on every input.
"""

from __future__ import annotations

import sys
from typing import Any, Iterator

from repro.abi import PRIMITIVES, REPEATED_HEADER, AbiError, MessageLayout, member_primitive
from repro.proto.descriptor import FieldType
from repro.proto.message import Message, MessageFactory

from .adt import TypeUniverse

__all__ = ["CppMessageView", "read_message", "verify_object", "view_class"]

_POINTER = PRIMITIVES["pointer"].codec
_HEADER = REPEATED_HEADER.codec.unpack_from  # (elements, size, capacity)
#: element arrays are cast in place where the host is little-endian, as the ABI
_NATIVE_LE = sys.byteorder == "little"


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

    ``CppMessageView(universe, layout, addr)`` builds an instance of the
    layout's generated subclass (:func:`view_class`), which has one
    property per field, as a protoc-generated class has one inline
    accessor per field.  Field access follows exactly the memory trips
    host code makes: scalar loads at member offsets, ``std::string``
    data-pointer dereferences (with the SSO fast path), repeated-header +
    element-array reads, and child-pointer chases returning nested views.
    A name that is not a field raises ``AttributeError``, as on a parsed
    message.

    The object is *loaded, not parsed*: its region is resolved once, at
    construction (the host engine's handler hands in its block's), with
    one bounds check for ``[addr, addr + sizeof)``; every in-object read
    is served from that region, a scalar one ``unpack_from``.  So is a
    child object or element array lying in it — an element array in one
    C call, ``memoryview.cast(fmt).tolist()`` — nothing there is resolved
    again; a span outside it pays one checked resolution in the space.
    """

    __slots__ = ("_addr", "_region", "_buf", "_offset")
    #: set on each generated subclass: what it views, and the vtable its
    #: objects point at (once the first one has been verified)
    _universe: TypeUniverse
    _layout: MessageLayout
    _space: Any
    _vtable: int | None

    def __new__(cls, universe: TypeUniverse, layout: MessageLayout, addr: int):
        if cls is CppMessageView:  # the generic entry: the layout's class
            cls = view_class(universe, layout)
        return cls._load(universe.space.region_of(addr, layout.sizeof), addr)

    @classmethod
    def _load(cls, region, addr: int) -> "CppMessageView":
        """The view of the object at ``addr``; ``region`` holds all of it."""
        offset = addr - region.base
        # The vptr check of :func:`verify_object`, on the span just proven.
        vptr = _POINTER.unpack_from(region.buf, offset + cls._layout.VPTR_OFFSET)[0]
        if vptr != cls._vtable:
            verify_object(cls._universe, cls._layout, addr, region)  # raises, naming both
            cls._vtable = vptr  # proven: later objects compare to it alone
        self = object.__new__(cls)
        self._addr, self._region, self._buf, self._offset = addr, region, region.buf, offset
        return self

    def __getnewargs__(self):  # copy.copy rebuilds the view through __new__
        return self._universe, self._layout, self._addr

    @property
    def address(self) -> int:
        return self._addr

    @property
    def type_name(self) -> str:
        return self._layout.descriptor.full_name

    def has_field(self, name: str) -> bool:
        slot = self._layout.slot(name)
        return self._layout.get_has_bit(self._region, self._addr, slot.has_bit)

    def _holder(self, addr: int, length: int):
        """The region holding ``[addr, addr + length)``: the view's own when
        the span lies in it, else one checked resolution in the space."""
        region = self._region
        if region.base <= addr <= region.base + region.size - length:
            return region
        return self._space.region_of(addr, length)

    def _read_child(self, fd, at: int) -> "CppMessageView":
        """The submessage whose pointer member is at offset ``at``."""
        ptr = _POINTER.unpack_from(self._buf, self._offset + at)[0]
        if ptr == 0:
            # C++ semantics: accessing an unset submessage returns the
            # (immutable) global default instance, never null — the
            # same view a parsed Message gives via auto-vivification.
            ptr = self._universe.default_instance(fd.message_type)
        cls = view_class(self._universe, self._universe.layouts.layout(fd.message_type))
        return cls._load(self._holder(ptr, cls._layout.sizeof), ptr)

    def _read_string(self, holder, addr: int, text: bool):
        """The ``std::string`` at ``addr`` inside ``holder``, the already
        checked region holding the string object itself.  SSO data lies
        inside that object; out-of-line data is one further dereference,
        decoded straight from the span."""
        sl = self._layout.string_layout
        data_addr, n = sl.locate(holder, addr)
        if n == 0:
            return "" if text else b""
        # inline, or in the arena that built the object: the holder's
        # region, already resolved; anywhere else, through the space
        inside = holder.base <= data_addr <= holder.base + holder.size - n
        span = (holder if inside else self._space).view(data_addr, n)
        return str(span, "utf-8") if text else bytes(span)

    def _read_array(self, at: int, fmt: str, size: int) -> list:
        """The elements of the repeated field whose header is at offset
        ``at``: scalars, or the pointers of message elements.  The array
        is one span: inside the held region it is cast in place and listed
        in one C call; anywhere else one checked read through the space."""
        elems, count, _cap = _HEADER(self._buf, self._offset + at)
        region = self._region
        start = elems - region.base
        end = start + count * size
        if 0 <= start and end <= region.size and _NATIVE_LE:
            return memoryview(self._buf)[start:end].cast(fmt).tolist()
        return list(self._space.read_array(elems, fmt, count)) if count else []

    def _read_messages(self, fd, at: int) -> list:
        cls = view_class(self._universe, self._universe.layouts.layout(fd.message_type))
        sizeof = cls._layout.sizeof
        return [cls._load(self._holder(ptr, sizeof), ptr) for ptr in self._read_array(at, "Q", 8)]

    def _read_strings(self, at: int, text: bool) -> list:
        elems, count, _cap = _HEADER(self._buf, self._offset + at)
        if count == 0:
            return []
        size = self._layout.string_layout.size
        holder = self._holder(elems, size * count)
        return [self._read_string(holder, elems + size * i, text) for i in range(count)]

    def fields(self) -> Iterator[str]:
        for slot in self._layout.slots:
            yield slot.field.name

    def __repr__(self) -> str:
        return f"<CppMessageView {self.type_name} @ {self._addr:#x}>"


def view_class(universe: TypeUniverse, layout: MessageLayout) -> type[CppMessageView]:
    """The generated :class:`CppMessageView` subclass for ``layout``,
    compiled on first use and cached on ``universe``.  Each field is a
    property whose getter is straight-line source; a field name appears
    there only as a string literal, and a name the base class already
    answers (``address``, ``fields``, ...) keeps that attribute."""
    cls = universe.view_classes.get(layout)
    if cls is not None:
        return cls
    ns, lines = {}, []
    for i, slot in enumerate(layout.slots):
        fd, at = slot.field, slot.offset
        ns[f"f{i}"] = fd
        text = fd.type is FieldType.STRING
        if slot.kind == "scalar":
            ns[f"u{i}"] = member_primitive(fd).codec.unpack_from
            read = f"u{i}(self._buf, self._offset + {at})[0]"
        elif slot.kind == "string":
            read = f"self._read_string(self._region, self._addr + {at}, {text})"
        elif slot.kind == "message":
            read = f"self._read_child(f{i}, {at})"
        elif fd.type is FieldType.MESSAGE:
            read = f"self._read_messages(f{i}, {at})"
        elif fd.type in (FieldType.STRING, FieldType.BYTES):
            read = f"self._read_strings({at}, {text})"
        else:
            prim = member_primitive(fd)
            read = f"self._read_array({at}, {prim.fmt!r}, {prim.size})"
        lines.append(f"def g{i}(self):\n    return {read}")
    exec("\n".join(lines), ns)
    namespace = {"__slots__": (), "_universe": universe, "_layout": layout,
                 "_space": universe.space, "_vtable": None}
    for i, slot in enumerate(layout.slots):
        if not hasattr(CppMessageView, slot.field.name) and slot.field.name not in namespace:
            namespace[slot.field.name] = property(ns[f"g{i}"])
    cls = universe.view_classes[layout] = type(
        f"{layout.descriptor.name}View", (CppMessageView,), namespace)
    return cls


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
