"""Descriptors: the schema model produced by parsing ``.proto`` files.

Descriptors play the same role as protobuf's ``Descriptor``/
``FieldDescriptor`` objects: they describe message types, fields, enums and
services independently of any generated code.  Everything downstream — the
message factory, the serializer, the reference deserializer, the C++ layout
model in :mod:`repro.abi` and the Accelerator Description Table in
:mod:`repro.offload.adt` — is driven purely by descriptors, which is what
lets the DPU-side code work with *any* message type without recompilation
(paper §V-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "FieldType",
    "FieldLabel",
    "FieldDescriptor",
    "EnumValueDescriptor",
    "EnumDescriptor",
    "MessageDescriptor",
    "MethodDescriptor",
    "ServiceDescriptor",
    "FileDescriptor",
    "DescriptorPool",
    "DescriptorError",
]


class DescriptorError(ValueError):
    """Raised for invalid or inconsistent schema definitions."""


class FieldType(enum.Enum):
    """proto3 scalar and composite field types."""

    DOUBLE = "double"
    FLOAT = "float"
    INT32 = "int32"
    INT64 = "int64"
    UINT32 = "uint32"
    UINT64 = "uint64"
    SINT32 = "sint32"
    SINT64 = "sint64"
    FIXED32 = "fixed32"
    FIXED64 = "fixed64"
    SFIXED32 = "sfixed32"
    SFIXED64 = "sfixed64"
    BOOL = "bool"
    STRING = "string"
    BYTES = "bytes"
    MESSAGE = "message"
    ENUM = "enum"

    @property
    def is_packable(self) -> bool:
        """Numeric types may be packed when repeated (proto3 default)."""
        return self not in (FieldType.STRING, FieldType.BYTES, FieldType.MESSAGE)


#: Map of type keyword in .proto source to FieldType.
SCALAR_TYPE_NAMES = {t.value: t for t in FieldType if t not in (FieldType.MESSAGE, FieldType.ENUM)}


class FieldLabel(enum.Enum):
    SINGULAR = "singular"
    REPEATED = "repeated"


@dataclass
class FieldDescriptor:
    """One field of a message.

    ``message_type`` / ``enum_type`` are resolved by the
    :class:`DescriptorPool` after all types have been registered, mirroring
    protoc's two-pass compilation (types may be referenced before they are
    defined).
    """

    name: str
    number: int
    type: FieldType
    label: FieldLabel = FieldLabel.SINGULAR
    type_name: str | None = None  # unresolved message/enum type name
    message_type: "MessageDescriptor | None" = None
    enum_type: "EnumDescriptor | None" = None
    json_name: str | None = None
    containing_oneof: str | None = None

    @property
    def is_repeated(self) -> bool:
        return self.label is FieldLabel.REPEATED

    @property
    def is_packed(self) -> bool:
        """proto3 packs repeated numeric fields by default."""
        return self.is_repeated and self.type.is_packable

    def default_value(self):
        """proto3 zero-value for this field."""
        if self.is_repeated:
            return []
        t = self.type
        if t is FieldType.STRING:
            return ""
        if t is FieldType.BYTES:
            return b""
        if t is FieldType.BOOL:
            return False
        if t in (FieldType.FLOAT, FieldType.DOUBLE):
            return 0.0
        if t is FieldType.MESSAGE:
            return None
        return 0

    def validate(self) -> None:
        if self.number < 1 or self.number > (1 << 29) - 1:
            raise DescriptorError(f"field {self.name!r}: number {self.number} out of range")
        if 19000 <= self.number <= 19999:
            raise DescriptorError(f"field {self.name!r}: numbers 19000-19999 are reserved")
        if self.type in (FieldType.MESSAGE, FieldType.ENUM) and not (
            self.message_type or self.enum_type or self.type_name
        ):
            raise DescriptorError(f"field {self.name!r}: composite type without a type name")


@dataclass
class EnumValueDescriptor:
    name: str
    number: int


@dataclass
class EnumDescriptor:
    name: str
    full_name: str
    values: list[EnumValueDescriptor] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_number: dict[int, EnumValueDescriptor] = {}
        self._by_name: dict[str, EnumValueDescriptor] = {}
        for v in self.values:
            self._by_number.setdefault(v.number, v)
            if v.name in self._by_name:
                raise DescriptorError(f"enum {self.full_name}: duplicate value name {v.name!r}")
            self._by_name[v.name] = v
        if self.values and self.values[0].number != 0:
            raise DescriptorError(f"enum {self.full_name}: first value must be zero in proto3")

    def value_by_number(self, number: int) -> EnumValueDescriptor | None:
        return self._by_number.get(number)

    def value_by_name(self, name: str) -> EnumValueDescriptor | None:
        return self._by_name.get(name)


@dataclass
class MessageDescriptor:
    """Describes one message type: its fields, nested types and oneofs."""

    name: str
    full_name: str
    fields: list[FieldDescriptor] = field(default_factory=list)
    nested_messages: list["MessageDescriptor"] = field(default_factory=list)
    nested_enums: list[EnumDescriptor] = field(default_factory=list)
    oneofs: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rebuild_indexes()

    def _rebuild_indexes(self) -> None:
        self._by_number: dict[int, FieldDescriptor] = {}
        self._by_name: dict[str, FieldDescriptor] = {}
        for f in self.fields:
            f.validate()
            if f.number in self._by_number:
                raise DescriptorError(
                    f"message {self.full_name}: duplicate field number {f.number}"
                )
            if f.name in self._by_name:
                raise DescriptorError(
                    f"message {self.full_name}: duplicate field name {f.name!r}"
                )
            self._by_number[f.number] = f
            self._by_name[f.name] = f

    def add_field(self, fd: FieldDescriptor) -> None:
        self.fields.append(fd)
        self._rebuild_indexes()

    def field_by_number(self, number: int) -> FieldDescriptor | None:
        return self._by_number.get(number)

    def field_by_name(self, name: str) -> FieldDescriptor | None:
        return self._by_name.get(name)

    def fields_sorted(self) -> list[FieldDescriptor]:
        """Fields in ascending field-number order (serialization order)."""
        return sorted(self.fields, key=lambda f: f.number)

    def transitive_messages(self) -> list["MessageDescriptor"]:
        """This message plus every message type reachable through its
        fields, depth-first, deduplicated.  This is the set an ADT for this
        root type must describe (paper §V-B: "recursively including all
        nested field message types")."""
        seen: dict[str, MessageDescriptor] = {}
        stack = [self]
        while stack:
            m = stack.pop()
            if m.full_name in seen:
                continue
            seen[m.full_name] = m
            for f in m.fields:
                if f.message_type is not None:
                    stack.append(f.message_type)
        return list(seen.values())


@dataclass
class MethodDescriptor:
    """A unary RPC method (the compatibility layer supports unary calls,
    paper §V-D)."""

    name: str
    full_name: str
    input_type: MessageDescriptor
    output_type: MessageDescriptor


@dataclass
class ServiceDescriptor:
    name: str
    full_name: str
    methods: list[MethodDescriptor] = field(default_factory=list)

    def method_by_name(self, name: str) -> MethodDescriptor | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class FileDescriptor:
    name: str
    package: str
    messages: list[MessageDescriptor] = field(default_factory=list)
    enums: list[EnumDescriptor] = field(default_factory=list)
    services: list[ServiceDescriptor] = field(default_factory=list)


class DescriptorPool:
    """Registry of all known types; resolves cross-references.

    Mirrors protobuf's ``DescriptorPool``: types register under their fully
    qualified name, and fields whose ``type_name`` was left symbolic during
    parsing are linked here.
    """

    def __init__(self) -> None:
        self._messages: dict[str, MessageDescriptor] = {}
        self._enums: dict[str, EnumDescriptor] = {}
        self._services: dict[str, ServiceDescriptor] = {}

    # -- registration ------------------------------------------------------

    def add_message(self, desc: MessageDescriptor) -> MessageDescriptor:
        if desc.full_name in self._messages:
            raise DescriptorError(f"duplicate message type {desc.full_name!r}")
        self._messages[desc.full_name] = desc
        for nested in desc.nested_messages:
            self.add_message(nested)
        for nested in desc.nested_enums:
            self.add_enum(nested)
        return desc

    def add_enum(self, desc: EnumDescriptor) -> EnumDescriptor:
        if desc.full_name in self._enums:
            raise DescriptorError(f"duplicate enum type {desc.full_name!r}")
        self._enums[desc.full_name] = desc
        return desc

    def add_service(self, desc: ServiceDescriptor) -> ServiceDescriptor:
        if desc.full_name in self._services:
            raise DescriptorError(f"duplicate service {desc.full_name!r}")
        self._services[desc.full_name] = desc
        return desc

    # -- lookup ------------------------------------------------------------

    def message(self, full_name: str) -> MessageDescriptor:
        try:
            return self._messages[full_name]
        except KeyError:
            raise DescriptorError(f"unknown message type {full_name!r}") from None

    def enum(self, full_name: str) -> EnumDescriptor:
        try:
            return self._enums[full_name]
        except KeyError:
            raise DescriptorError(f"unknown enum type {full_name!r}") from None

    def service(self, full_name: str) -> ServiceDescriptor:
        try:
            return self._services[full_name]
        except KeyError:
            raise DescriptorError(f"unknown service {full_name!r}") from None

    def messages(self) -> list[MessageDescriptor]:
        return list(self._messages.values())

    def services(self) -> list[ServiceDescriptor]:
        return list(self._services.values())

    # -- resolution --------------------------------------------------------

    def _lookup_type(self, type_name: str, scope: str):
        """Resolve ``type_name`` the way protoc does: try the innermost
        enclosing scope first, then walk outward to the package root."""
        if type_name.startswith("."):
            fq = type_name[1:]
            return self._messages.get(fq) or self._enums.get(fq)
        parts = scope.split(".") if scope else []
        for depth in range(len(parts), -1, -1):
            prefix = ".".join(parts[:depth])
            candidate = f"{prefix}.{type_name}" if prefix else type_name
            hit = self._messages.get(candidate) or self._enums.get(candidate)
            if hit is not None:
                return hit
        return None

    def resolve(self) -> None:
        """Link all symbolic field type references.  Idempotent."""
        for desc in self._messages.values():
            scope = desc.full_name
            for f in desc.fields:
                if f.message_type is not None or f.enum_type is not None:
                    continue
                if f.type_name is None:
                    continue
                target = self._lookup_type(f.type_name, scope)
                if target is None:
                    raise DescriptorError(
                        f"{desc.full_name}.{f.name}: unresolved type {f.type_name!r}"
                    )
                if isinstance(target, MessageDescriptor):
                    f.message_type = target
                    f.type = FieldType.MESSAGE
                else:
                    f.enum_type = target
                    f.type = FieldType.ENUM
