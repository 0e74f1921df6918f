"""Dynamic message classes — the generated-code analog.

``MessageFactory`` plays the role of protoc's generated ``.pb.h/.pb.cc``
classes: given a :class:`~repro.proto.descriptor.MessageDescriptor` it
produces a Python class whose instances hold typed field values, validate
assignments, track oneof membership, and know how to serialize/parse
themselves through the reference codec.

These in-memory objects are the *logical* value of a message.  The
offloaded path in :mod:`repro.offload` produces byte-accurate C++-layout
objects instead; :func:`repro.offload.materialize.read_message` converts
those back to this representation so tests can compare the two paths for
equality.

Repeated fields are plain lists that validate what enters them.  The bulk
entry points — ``extend``, ``+=``, slice assignment, and through them
``Message(field=[...])`` and ``msg.field = [...]`` — are **atomic** (the
span is validated before any of it is stored; a rejected call leaves the
field as it was) and check a scalar span as a whole: **exact types**
(``int`` alone for integer kinds and enums, which keeps ``bool`` out) in
one C-level pass, **integer range** by building one ``array`` of the
kind's width.  Any other input (an ``IntEnum``, a ``bytearray``, a mixed
or out-of-range list) is walked element by element through
:func:`_coerce_scalar`, which accepts what it always accepted and raises
:class:`FieldValueError` naming the first offender (``docs/DECODER.md``
§7, "Arrays stay arrays: the encode side").
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Iterator

import numpy as np

from .descriptor import (
    DescriptorPool,
    FieldDescriptor,
    FieldType,
    MessageDescriptor,
)
from .kinds import KINDS

__all__ = ["Message", "MessageFactory", "FieldValueError"]


class FieldValueError(TypeError):
    """Raised when a value does not fit the declared field type."""


#: ``array`` typecode → its range (C ``int`` is 32 bits, ``long long`` 64,
#: wherever CPython runs); an integer kind's typecode is its format
#: character in the kind table, so its width is stated once.
_TYPECODE_RANGES = {
    "i": (-(1 << 31), (1 << 31) - 1),
    "I": (0, (1 << 32) - 1),
    "q": (-(1 << 63), (1 << 63) - 1),
    "Q": (0, (1 << 64) - 1),
}
_INT_TYPECODES = {t: k.fmt for t, k in KINDS.items() if k.fmt in _TYPECODE_RANGES}
_INT_RANGES = {t: _TYPECODE_RANGES[code] for t, code in _INT_TYPECODES.items()}

#: scalar kind → (element types a span may consist of to be taken whole,
#: typecode that range-checks / coerces it — None where the type decides).
_SPAN_CHECKS: dict[FieldType, tuple[frozenset, str | None]] = {
    **{t: (frozenset({int}), code) for t, code in _INT_TYPECODES.items()},
    FieldType.FLOAT: (frozenset({int, float}), "d"),
    FieldType.DOUBLE: (frozenset({int, float}), "d"),
    FieldType.BOOL: (frozenset({bool}), None),
    FieldType.STRING: (frozenset({str}), None),
    FieldType.BYTES: (frozenset({bytes}), None),
}


def _coerce_scalar(fd: FieldDescriptor, value: Any) -> Any:
    """Validate/coerce one scalar value for field ``fd``."""
    t = fd.type
    if t in _INT_RANGES:
        if isinstance(value, bool) and t is not FieldType.BOOL:
            raise FieldValueError(f"{fd.name}: bool is not an integer value")
        if not isinstance(value, int):
            raise FieldValueError(f"{fd.name}: expected int, got {type(value).__name__}")
        lo, hi = _INT_RANGES[t]
        if not lo <= value <= hi:
            raise FieldValueError(f"{fd.name}: {value} out of range for {t.value}")
        return value
    if t is FieldType.BOOL:
        if not isinstance(value, bool):
            raise FieldValueError(f"{fd.name}: expected bool, got {type(value).__name__}")
        return value
    if t in (FieldType.FLOAT, FieldType.DOUBLE):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FieldValueError(f"{fd.name}: expected float, got {type(value).__name__}")
        return float(value)
    if t is FieldType.STRING:
        if not isinstance(value, str):
            raise FieldValueError(f"{fd.name}: expected str, got {type(value).__name__}")
        return value
    if t is FieldType.BYTES:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise FieldValueError(f"{fd.name}: expected bytes, got {type(value).__name__}")
        return bytes(value)
    raise FieldValueError(f"{fd.name}: cannot assign scalar to {t.value} field")


class _RepeatedField(list):
    """A list that validates elements on mutation."""

    __slots__ = ("_fd", "_owner_factory")

    def __init__(self, fd: FieldDescriptor, factory: "MessageFactory") -> None:
        super().__init__()
        self._fd = fd
        self._owner_factory = factory

    def _check(self, value: Any) -> Any:
        fd = self._fd
        if fd.type is FieldType.MESSAGE:
            if not isinstance(value, Message):
                raise FieldValueError(f"{fd.name}: expected Message element")
            if value.DESCRIPTOR.full_name != fd.message_type.full_name:
                raise FieldValueError(
                    f"{fd.name}: expected {fd.message_type.full_name}, "
                    f"got {value.DESCRIPTOR.full_name}"
                )
            return value
        return _coerce_scalar(fd, value)

    def append(self, value: Any) -> None:  # noqa: D102
        super().append(self._check(value))

    def _check_span(self, values) -> list:
        """``values`` validated and coerced as a whole — nothing is stored
        here, so a raise leaves the field untouched."""
        if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
            values = values.tolist()
        elif type(values) is not list:
            # walked once; ``array()`` is C-fast on an exact list only
            values = list(values)
        types, typecode = _SPAN_CHECKS.get(self._fd.type, (None, None))
        if types is not None and set(map(type, values)) <= types:
            if typecode is None:
                return values
            try:
                typed = array(typecode, values)
            except OverflowError:
                pass  # the per-element walk names the offender
            else:
                return typed.tolist() if typecode == "d" else values
        return [self._check(v) for v in values]

    def extend(self, values) -> None:  # noqa: D102
        super().extend(self._check_span(values))

    def __iadd__(self, values):  # noqa: D105
        self.extend(values)
        return self

    def insert(self, index: int, value: Any) -> None:  # noqa: D102
        super().insert(index, self._check(value))

    def __setitem__(self, index, value):  # noqa: D105
        if isinstance(index, slice):
            value = self._check_span(value)
        else:
            value = self._check(value)
        super().__setitem__(index, value)

    def add(self) -> "Message":
        """For message-typed fields: append and return a new element."""
        if self._fd.type is not FieldType.MESSAGE:
            raise FieldValueError(f"{self._fd.name}: add() only valid on message fields")
        msg = self._owner_factory.get_class(self._fd.message_type)()
        super().append(msg)
        return msg


class Message:
    """Base class of all dynamically generated message classes.

    Subclasses are created by :class:`MessageFactory` and carry:

    * ``DESCRIPTOR`` — the :class:`MessageDescriptor`
    * ``_FACTORY`` — the owning factory (for nested construction)
    """

    DESCRIPTOR: MessageDescriptor
    _FACTORY: "MessageFactory"
    __slots__ = ("_values", "_unknown")

    def __init__(self, **kwargs: Any) -> None:
        self._values: dict[str, Any] = {}
        #: raw (tag + payload) bytes of unknown fields, preserved across
        #: parse/serialize like protobuf >= 3.5 (appended after known
        #: fields on re-serialization).  NOT part of message equality.
        self._unknown: bytes = b""
        for name, value in kwargs.items():
            fd = self.DESCRIPTOR.field_by_name(name)
            if fd is None:
                raise FieldValueError(
                    f"{self.DESCRIPTOR.full_name} has no field {name!r}"
                )
            if fd.is_repeated:
                getattr(self, name).extend(value)
            else:
                setattr(self, name, value)

    # -- attribute protocol --------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails; field access lands here.
        desc = type(self).DESCRIPTOR
        fd = desc.field_by_name(name)
        if fd is None:
            raise AttributeError(f"{desc.full_name} has no field {name!r}")
        values = self._values
        if name in values:
            return values[name]
        if fd.is_repeated:
            lst = _RepeatedField(fd, self._FACTORY)
            values[name] = lst
            return lst
        if fd.type is FieldType.MESSAGE:
            # proto3 semantics: reading a singular message field
            # auto-vivifies an empty submessage (like C++'s default
            # instance, but mutable here for convenience).
            sub = self._FACTORY.get_class(fd.message_type)()
            values[name] = sub
            return sub
        return fd.default_value()

    def __setattr__(self, name: str, value: Any) -> None:
        if name in Message.__slots__:
            object.__setattr__(self, name, value)
            return
        desc = type(self).DESCRIPTOR
        fd = desc.field_by_name(name)
        if fd is None:
            raise AttributeError(f"{desc.full_name} has no field {name!r}")
        if fd.is_repeated:
            lst = _RepeatedField(fd, self._FACTORY)
            lst.extend(value)
            self._values[name] = lst
            return
        if fd.type is FieldType.MESSAGE:
            if value is None:
                self._values.pop(name, None)
                return
            if not isinstance(value, Message) or (
                value.DESCRIPTOR.full_name != fd.message_type.full_name
            ):
                raise FieldValueError(
                    f"{name}: expected {fd.message_type.full_name} message"
                )
            self._values[name] = value
        else:
            self._values[name] = _coerce_scalar(fd, value)
        if fd.containing_oneof is not None:
            self._clear_other_oneof_members(fd)

    def _clear_other_oneof_members(self, fd: FieldDescriptor) -> None:
        for other in self.DESCRIPTOR.fields:
            if (
                other.containing_oneof == fd.containing_oneof
                and other.name != fd.name
            ):
                self._values.pop(other.name, None)

    # -- protobuf-style API ---------------------------------------------------

    def HasField(self, name: str) -> bool:
        """Presence: set and (for scalars) different from proto3 default,
        matching proto3 serialization semantics."""
        fd = self.DESCRIPTOR.field_by_name(name)
        if fd is None:
            raise AttributeError(f"no field {name!r}")
        if fd.is_repeated:
            raise FieldValueError("HasField is not defined for repeated fields")
        if name not in self._values:
            return False
        if fd.type is FieldType.MESSAGE:
            return True
        return self._values[name] != fd.default_value()

    def WhichOneof(self, oneof_name: str) -> str | None:
        if oneof_name not in self.DESCRIPTOR.oneofs:
            raise FieldValueError(f"no oneof {oneof_name!r}")
        for fd in self.DESCRIPTOR.fields:
            if fd.containing_oneof == oneof_name and fd.name in self._values:
                return fd.name
        return None

    def ClearField(self, name: str) -> None:
        if self.DESCRIPTOR.field_by_name(name) is None:
            raise AttributeError(f"no field {name!r}")
        self._values.pop(name, None)

    def Clear(self) -> None:
        self._values.clear()
        self._unknown = b""

    def UnknownFields(self) -> bytes:
        """Raw preserved bytes of fields this schema does not know."""
        return self._unknown

    def DiscardUnknownFields(self) -> None:
        self._unknown = b""
        for fd, value in self.ListFields():
            from .descriptor import FieldType as _FT

            if fd.type is _FT.MESSAGE:
                for sub in value if fd.is_repeated else [value]:
                    sub.DiscardUnknownFields()

    def ListFields(self) -> list[tuple[FieldDescriptor, Any]]:
        """Fields that would be serialized, in field-number order."""
        out = []
        for fd in self.DESCRIPTOR.fields_sorted():
            value = self._values.get(fd.name)
            if value is None:
                continue
            if fd.is_repeated:
                if len(value) == 0:
                    continue
            elif fd.type is not FieldType.MESSAGE and value == fd.default_value():
                continue
            out.append((fd, value))
        return out

    def SerializeToString(self) -> bytes:
        from .serializer import serialize

        return serialize(self)

    def ParseFromString(self, data) -> "Message":
        from .deserializer import parse_into

        self.Clear()
        parse_into(self, data)
        return self

    def ByteSize(self) -> int:
        from .serializer import serialized_size

        return serialized_size(self)

    def CopyFrom(self, other: "Message") -> None:
        if other.DESCRIPTOR.full_name != self.DESCRIPTOR.full_name:
            raise FieldValueError("CopyFrom between different message types")
        self.ParseFromString(other.SerializeToString())

    # -- comparison / repr ----------------------------------------------------

    def _canonical(self) -> dict[str, Any]:
        """Field map with defaults normalized away (for equality)."""
        out: dict[str, Any] = {}
        for fd, value in self.ListFields():
            if fd.type is FieldType.MESSAGE:
                if fd.is_repeated:
                    out[fd.name] = [v._canonical() for v in value]
                else:
                    canon = value._canonical()
                    if canon:
                        out[fd.name] = canon
            elif fd.type in (FieldType.FLOAT, FieldType.DOUBLE):
                vals = value if fd.is_repeated else [value]
                norm = [("nan" if math.isnan(v) else v) for v in vals]
                out[fd.name] = norm if fd.is_repeated else norm[0]
            else:
                out[fd.name] = list(value) if fd.is_repeated else value
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.DESCRIPTOR.full_name == other.DESCRIPTOR.full_name
            and self._canonical() == other._canonical()
        )

    def __hash__(self) -> int:  # messages are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:
        parts = ", ".join(f"{fd.name}={value!r}" for fd, value in self.ListFields())
        return f"{self.DESCRIPTOR.full_name}({parts})"


class MessageFactory:
    """Creates and caches one Python class per message descriptor."""

    def __init__(self, pool: DescriptorPool | None = None) -> None:
        self.pool = pool or DescriptorPool()
        self._classes: dict[str, type[Message]] = {}

    def get_class(self, descriptor: MessageDescriptor) -> type[Message]:
        cls = self._classes.get(descriptor.full_name)
        if cls is None:
            cls = type(
                descriptor.name,
                (Message,),
                {
                    "DESCRIPTOR": descriptor,
                    "_FACTORY": self,
                    "__slots__": (),
                    "__module__": "repro.proto.generated",
                    "__qualname__": descriptor.full_name,
                },
            )
            self._classes[descriptor.full_name] = cls
        return cls

    def get_class_by_name(self, full_name: str) -> type[Message]:
        return self.get_class(self.pool.message(full_name))

    def classes(self) -> Iterator[type[Message]]:
        for desc in self.pool.messages():
            yield self.get_class(desc)
