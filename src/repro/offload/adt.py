"""The Accelerator Description Table (paper §V-B).

The ADT carries everything the DPU needs to deserialize *any* protobuf
message directly into host-ABI C++ objects, without recompiling the DPU
application:

* per message class: ``sizeof``/``alignof``, the vtable address, the
  address and raw bytes of the host's **default instance** (copying those
  bytes seeds a new object with a correct vptr and with string fields
  whose data pointers reference the default instance's own SSO buffers —
  valid host addresses, exactly how protobuf's global default instances
  behave);
* per field: wire-decoding type, member offset, presence-bit index,
  element size, and the index of the child class entry for message-typed
  fields;
* globally: which ``std::string`` layout the host uses (libstdc++/libc++),
  which cannot be inferred remotely and is therefore transmitted
  explicitly (§V-C), plus an ABI fingerprint for the compatibility check.

The table is *per class, not per instance* — zero per-instance metadata
crosses the wire — and is transmitted host→DPU once at startup.

``TypeUniverse`` is the host-side builder (the "custom protobuf plugin"
output): it materializes vtables and default instances in a host globals
region and assembles the ADT.  ``encode_adt``/``decode_adt`` give the
compact binary representation sent over the bootstrap channel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.abi import AbiConfig, LayoutCache, MessageLayout, StdLib, member_primitive
from repro.memory import AddressSpace, MemoryRegion
from repro.proto.descriptor import FieldType, MessageDescriptor

__all__ = [
    "AdtError",
    "AdtField",
    "AdtEntry",
    "Adt",
    "TypeUniverse",
    "BlobReader",
    "encode_adt",
    "decode_adt",
    "GLOBALS_BASE",
]

#: Where the host maps its globals (vtables + default instances).  High
#: canonical addresses, far from the buffer ranges the planner hands out.
GLOBALS_BASE = 0x7F00_0000_0000
#: Bytes reserved there: 1 MiB.
GLOBALS_SIZE = 1 << 20


class AdtError(RuntimeError):
    """Malformed or inconsistent ADT."""


# Field kinds on the wire: the proto type drives decoding.
_KIND_CODES = {t: i for i, t in enumerate(FieldType)}
_KIND_FROM_CODE = {i: t for t, i in _KIND_CODES.items()}


@dataclass(frozen=True)
class AdtField:
    """Descriptor-independent decoding recipe for one field."""

    number: int
    name: str
    kind: FieldType
    repeated: bool
    offset: int
    has_bit: int
    elem_size: int  # in-object size of one element (scalars/enum), else 0
    child: int  # index of the child AdtEntry for message fields, else -1
    #: index of the field's oneof within its message, -1 if none — the
    #: deserializer clears sibling members when one is set (oneof
    #: exclusivity holds in object form exactly as in the dynamic API)
    oneof_group: int = -1


@dataclass
class AdtEntry:
    """One message class."""

    full_name: str
    sizeof: int
    alignof: int
    vtable_addr: int
    default_addr: int
    default_bytes: bytes
    fields: list[AdtField] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_number = {f.number: f for f in self.fields}

    def field_by_number(self, number: int) -> AdtField | None:
        return self._by_number.get(number)


@dataclass
class Adt:
    """The full table plus the global ABI facts."""

    stdlib: StdLib
    abi_note: str
    entries: list[AdtEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {e.full_name: i for i, e in enumerate(self.entries)}

    def index_of(self, full_name: str) -> int:
        try:
            return self._by_name[full_name]
        except KeyError:
            raise AdtError(f"ADT has no entry for {full_name!r}") from None

    def entry(self, index: int) -> AdtEntry:
        return self.entries[index]

    def entry_by_name(self, full_name: str) -> AdtEntry:
        return self.entries[self.index_of(full_name)]


class TypeUniverse:
    """Host-side registry of message classes: layouts, vtables, default
    instances — the run-time image the ADT describes.

    One universe per host process.  Materializes a globals region into the
    host address space (idempotently) and builds ADT entries on demand.
    """

    VTABLE_SLOT = 64  # bytes reserved per class vtable (opaque)

    def __init__(
        self,
        space: AddressSpace,
        abi: AbiConfig | None = None,
    ) -> None:
        self.space = space
        self.abi = abi or AbiConfig()
        self.layouts = LayoutCache(self.abi)
        self.globals = space.map(MemoryRegion(GLOBALS_BASE, GLOBALS_SIZE, "globals"))
        self._cursor = GLOBALS_BASE
        self._vtables: dict[str, int] = {}
        self._defaults: dict[str, int] = {}
        #: MessageLayout -> its generated view class (offload.materialize)
        self.view_classes: dict = {}

    # -- globals materialization -------------------------------------------------

    def _carve(self, size: int, align: int = 16) -> int:
        addr = (self._cursor + align - 1) & ~(align - 1)
        if addr + size > self.globals.end:
            raise AdtError("globals region exhausted")
        self._cursor = addr + size
        return addr

    def vtable_address(self, desc: MessageDescriptor) -> int:
        addr = self._vtables.get(desc.full_name)
        if addr is None:
            addr = self._carve(self.VTABLE_SLOT)
            # Tag the vtable slot with a recognizable pattern so stray
            # reads fail loudly in tests.
            self.space.write(addr, b"VTBL" + desc.full_name.encode()[:56])
            self._vtables[desc.full_name] = addr
        return addr

    def default_instance(self, desc: MessageDescriptor) -> int:
        """Address of the host's default instance for ``desc`` (built on
        first use, like C++ static initialization)."""
        addr = self._defaults.get(desc.full_name)
        if addr is not None:
            return addr
        layout = self.layouts.layout(desc)
        addr = self._carve(layout.sizeof, layout.alignof)
        self._defaults[desc.full_name] = addr
        self._write_default(desc, layout, addr)
        return addr

    def _write_default(self, desc: MessageDescriptor, layout: MessageLayout, addr: int) -> None:
        space = self.space
        space.write(addr, b"\x00" * layout.sizeof)
        layout.write_vptr(space, addr, self.vtable_address(desc))
        for slot in layout.slots:
            if slot.kind == "string":
                # Empty string in SSO form: data pointer aims at this
                # (global) instance's own inline buffer — remains a valid
                # host address after the bytes are memcpy'd elsewhere.
                layout.string_layout.write(space, addr + slot.offset, b"", None)
            # scalars: zero; message pointers: nullptr; repeated: {0,0,0}

    # -- ADT assembly ---------------------------------------------------------------

    def build_adt(self, roots: list[MessageDescriptor]) -> Adt:
        """ADT covering ``roots`` and every transitively reachable type."""
        ordered: list[MessageDescriptor] = []
        seen: set[str] = set()
        for root in roots:
            for desc in root.transitive_messages():
                if desc.full_name not in seen:
                    seen.add(desc.full_name)
                    ordered.append(desc)
        index = {d.full_name: i for i, d in enumerate(ordered)}

        entries = []
        for desc in ordered:
            layout = self.layouts.layout(desc)
            default_addr = self.default_instance(desc)
            oneof_index = {name: i for i, name in enumerate(desc.oneofs)}
            fields = []
            for slot in layout.slots:
                fd = slot.field
                if fd.type is FieldType.MESSAGE:
                    child = index[fd.message_type.full_name]
                    elem = 0
                elif fd.type in (FieldType.STRING, FieldType.BYTES):
                    child = -1
                    elem = 0
                else:
                    child = -1
                    elem = member_primitive(fd).size
                fields.append(
                    AdtField(
                        number=fd.number,
                        name=fd.name,
                        kind=fd.type,
                        repeated=fd.is_repeated,
                        offset=slot.offset,
                        has_bit=slot.has_bit,
                        elem_size=elem,
                        child=child,
                        oneof_group=oneof_index.get(fd.containing_oneof, -1),
                    )
                )
            entries.append(
                AdtEntry(
                    full_name=desc.full_name,
                    sizeof=layout.sizeof,
                    alignof=layout.alignof,
                    vtable_addr=self.vtable_address(desc),
                    default_addr=default_addr,
                    default_bytes=bytes(self.space.read(default_addr, layout.sizeof)),
                    fields=fields,
                )
            )
        return Adt(stdlib=self.abi.stdlib, abi_note=self.abi.describe(), entries=entries)


# ---------------------------------------------------------------------------
# Binary encoding (what actually crosses the bootstrap channel)
# ---------------------------------------------------------------------------

_MAGIC = b"ADT2"


def _pack_str(out: bytearray, s: str) -> None:
    data = s.encode("utf-8")
    out += struct.pack("<H", len(data))
    out += data


class BlobReader:
    """Reads over an untrusted bootstrap blob in which every way out — a
    read past its end, a name that is not UTF-8, bytes left over — is
    :class:`AdtError`, the one error a hostile or truncated blob gives."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data, self.pos = data, 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise AdtError(f"blob truncated: {n} bytes wanted at {self.pos}")
        out, self.pos = self.data[self.pos : end], end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise AdtError("a name is not UTF-8") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise AdtError(f"{len(self.data) - self.pos} trailing bytes")


def encode_adt(adt: Adt) -> bytes:
    out = bytearray(_MAGIC)
    out.append(0 if adt.stdlib is StdLib.LIBSTDCXX else 1)
    _pack_str(out, adt.abi_note)
    out += struct.pack("<H", len(adt.entries))
    for e in adt.entries:
        _pack_str(out, e.full_name)
        out += struct.pack("<IHQQI", e.sizeof, e.alignof, e.vtable_addr, e.default_addr, len(e.default_bytes))
        out += e.default_bytes
        out += struct.pack("<H", len(e.fields))
        for f in e.fields:
            _pack_str(out, f.name)
            out += struct.pack(
                "<IBBIHBhh",
                f.number,
                _KIND_CODES[f.kind],
                1 if f.repeated else 0,
                f.offset,
                f.has_bit,
                f.elem_size,
                f.child,
                f.oneof_group,
            )
    return bytes(out)


def decode_adt(data: bytes) -> Adt:
    """The inverse of :func:`encode_adt`, checked once here: a blob it
    did not write raises :class:`AdtError`.  ``Adt.entry`` and the
    generated-decoder cache index ``entries`` with a field's ``child``
    unchecked, where −1 would quietly name the last entry."""
    blob = BlobReader(data)
    if blob.take(4) != _MAGIC:
        raise AdtError("bad ADT magic")
    (stdlib_code,) = blob.unpack("<B")
    if stdlib_code > 1:
        raise AdtError(f"unknown stdlib code {stdlib_code}")
    stdlib = StdLib.LIBCXX if stdlib_code else StdLib.LIBSTDCXX
    abi_note = blob.text()
    (n_entries,) = blob.unpack("<H")
    entries = []
    for _ in range(n_entries):
        full_name = blob.text()
        sizeof, alignof, vtable, default_addr, blen = blob.unpack("<IHQQI")
        default_bytes = blob.take(blen)
        (n_fields,) = blob.unpack("<H")
        fields = []
        for _ in range(n_fields):
            name = blob.text()
            (number, kind_code, repeated, offset, has_bit, elem, child,
             oneof_group) = blob.unpack("<IBBIHBhh")
            try:
                kind = _KIND_FROM_CODE[kind_code]
            except KeyError:
                raise AdtError(f"unknown field kind code {kind_code}") from None
            fields.append(
                AdtField(number, name, kind, bool(repeated), offset, has_bit,
                         elem, child, oneof_group)
            )
        entries.append(
            AdtEntry(full_name, sizeof, alignof, vtable, default_addr, default_bytes, fields)
        )
    blob.done()
    for e in entries:
        for f in e.fields:
            ok = 0 <= f.child < n_entries if f.kind is FieldType.MESSAGE else f.child == -1
            if not ok:
                raise AdtError(f"{e.full_name}.{f.name}: child {f.child} out of range")
    return Adt(stdlib=stdlib, abi_note=abi_note, entries=entries)
