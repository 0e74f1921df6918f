"""C++ type and ABI configuration model.

The offloaded deserializer writes bytes that a C++ program on the host will
interpret as live objects, so the DPU must know — exactly — the host's
sizes, alignments, field offsets and standard-library internals (paper
§V-A).  This module models those:

* :class:`AbiConfig` — the (architecture, compiler, standard library)
  triple the binary-compatibility argument quantifies over;
* the primitive type table (Itanium/LP64 sizes and alignments, identical on
  x86-64 and AArch64, which is *why* the offload is possible);
* the two ``std::string`` implementations the paper discusses (Figure 6):
  libstdc++ (32 bytes, pointer/size/union{sso[16], capacity}) and libc++
  (24 bytes, SSO flag in the low bit of the first byte), both with
  small-string optimization;
* the repeated-field headers (pointer/size/capacity) used for
  ``repeated`` members.

Byte order is little-endian throughout (§IV-A).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

__all__ = [
    "AbiError",
    "Arch",
    "Compiler",
    "StdLib",
    "AbiConfig",
    "PrimitiveType",
    "PRIMITIVES",
    "StringLayout",
    "LibstdcxxString",
    "LibcxxString",
    "string_layout_for",
    "RepeatedHeader",
    "POINTER_SIZE",
]

POINTER_SIZE = 8  # LP64 on both x86-64 and AArch64


class AbiError(RuntimeError):
    """Raised on ABI-model violations (bad layouts, invalid object bytes)."""


class Arch(enum.Enum):
    X86_64 = "x86_64"
    AARCH64 = "aarch64"


class Compiler(enum.Enum):
    GCC = "gcc"
    CLANG = "clang"


class StdLib(enum.Enum):
    LIBSTDCXX = "libstdc++"
    LIBCXX = "libc++"


@dataclass(frozen=True)
class AbiConfig:
    """One program's ABI-relevant build configuration.

    The paper's deployment pairs an AArch64 client (DPU) with an x86-64
    host, both on the Itanium C++ ABI with LP64 data layout, gcc or clang,
    and the *same* standard library — that combination is binary-compatible
    for message classes.  The checker in :mod:`repro.abi.compat` verifies
    compatibility instead of assuming it.
    """

    arch: Arch = Arch.X86_64
    compiler: Compiler = Compiler.GCC
    stdlib: StdLib = StdLib.LIBSTDCXX
    #: Compiler flags that alter layout (e.g. -fpack-struct, -m32) would
    #: break compatibility; we model them as an opaque frozenset the
    #: checker compares for equality (paper: "Compiler flags that affect
    #: the ABI should be the same").
    abi_flags: frozenset[str] = field(default_factory=frozenset)

    def describe(self) -> str:
        flags = " ".join(sorted(self.abi_flags)) or "-"
        return f"{self.arch.value}/{self.compiler.value}/{self.stdlib.value} [{flags}]"


@dataclass(frozen=True)
class PrimitiveType:
    """A scalar C++ type with its LP64 size/alignment and struct codec."""

    name: str
    size: int
    align: int
    fmt: str  # struct code; ``codec`` is its little-endian compiled form
    codec: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "codec", struct.Struct("<" + self.fmt))

    def pack(self, value) -> bytes:
        return self.codec.pack(value)

    def unpack(self, data) -> object:
        """Decode one value from exactly ``size`` bytes (any buffer)."""
        return self.codec.unpack(data)[0]


PRIMITIVES: dict[str, PrimitiveType] = {
    t.name: t
    for t in [
        PrimitiveType("bool", 1, 1, "?"),
        PrimitiveType("int32", 4, 4, "i"),
        PrimitiveType("uint32", 4, 4, "I"),
        PrimitiveType("int64", 8, 8, "q"),
        PrimitiveType("uint64", 8, 8, "Q"),
        PrimitiveType("float", 4, 4, "f"),
        PrimitiveType("double", 8, 8, "d"),
        PrimitiveType("pointer", 8, 8, "Q"),
    ]
}


# ---------------------------------------------------------------------------
# std::string layouts
# ---------------------------------------------------------------------------


class StringLayout:
    """Abstract ``std::string`` layout: craft and inspect instances.

    Subclasses implement the two real-world layouts.  ``write`` crafts a
    string object at ``addr`` whose character data (when not inlined by
    SSO) lives at ``data_addr``; ``locate`` does the inverse from the
    object's own bytes alone, and ``read`` then dereferences the data
    pointer through the provided address space — exactly what host code
    dereferencing the string does.
    """

    size: int
    align: int = 8
    sso_capacity: int
    #: ``(struct format, its arguments as source over the address
    #: {addr}, length n, bytes raw and data address d)`` of each form
    #: :meth:`write` packs, for the generated arena decoder
    SSO_FORM: tuple[str, str]
    LONG_FORM: tuple[str, str]

    def write(self, space, addr: int, data: bytes, data_addr: int | None) -> None:
        raise NotImplementedError

    def locate(self, space, addr: int) -> tuple[int, int]:
        """``(data address, length)`` of the character data, read from the
        string object ``[addr, addr + size)`` alone.  An SSO string's data
        address lies inside the object; nothing is dereferenced here."""
        raise NotImplementedError

    def read(self, space, addr: int) -> bytes:
        data_addr, n = self.locate(space, addr)
        # Zero-length reads never dereference the data pointer.  This
        # matters across sides: an unset field's pointer references the
        # *remote* default instance's SSO buffer, valid there but not
        # mapped here.
        return space.read(data_addr, n) if n else b""

    def is_sso(self, space, addr: int) -> bool:
        raise NotImplementedError

    def _write_long(self, space, data_addr: int | None, data) -> None:
        """Out-of-line character data plus the NUL real std::string keeps."""
        if data_addr is None:
            raise AbiError("long string requires out-of-line data address")
        space.write(data_addr, data)
        space.write(data_addr + len(data), b"\x00")

    def heap_bytes_needed(self, length: int) -> int:
        """Out-of-line bytes the deserializer must arena-allocate for a
        string of ``length`` bytes (0 when SSO applies).  Includes the
        terminating NUL real std::string maintains."""
        return 0 if length <= self.sso_capacity else length + 1


class LibstdcxxString(StringLayout):
    """libstdc++ ``std::string`` (paper Figure 6)::

        char*  data;        // offset 0
        size_t size;        // offset 8
        union {             // offset 16
            char   sso[16]; // inline buffer, capacity 15 + NUL
            size_t capacity;
        };

    SSO discriminator: ``data == &sso`` (pointer equality with the
    object's own inline buffer).
    """

    size = 32
    sso_capacity = 15
    _SSO_OFF = 16
    SSO_FORM = ("<QQ16s", "{addr} + 16, n, raw")
    LONG_FORM = ("<4Q", "d, n, n, 0")

    def write(self, space, addr: int, data: bytes, data_addr: int | None) -> None:
        n = len(data)
        if n <= self.sso_capacity:
            # data -> own inline buffer, size, NUL-padded characters
            space.write(addr, struct.pack(self.SSO_FORM[0], addr + self._SSO_OFF, n, bytes(data)))
        else:
            self._write_long(space, data_addr, data)
            # data, size, capacity == size, unused union tail
            space.write(addr, struct.pack(self.LONG_FORM[0], data_addr, n, n, 0))

    def is_sso(self, space, addr: int) -> bool:
        return space.read_u64(addr) == addr + self._SSO_OFF

    def locate(self, space, addr: int) -> tuple[int, int]:
        data_ptr, n = space.read_array(addr, "Q", 2)
        if n > self.sso_capacity and data_ptr == addr + self._SSO_OFF:
            raise AbiError(f"SSO string claims size {n} > {self.sso_capacity}")
        return data_ptr, n


class LibcxxString(StringLayout):
    """libc++ ``std::string`` (little-endian, 64-bit)::

        long form  (24 bytes): size_t cap|1;  size_t size;  char* data;
        short form (24 bytes): uint8 size<<1; char sso[23];

    The discriminator is the low bit of byte 0 (the paper: "an SSO flag in
    the first bit of the capacity field"): 1 → long form, 0 → short form.
    """

    size = 24
    sso_capacity = 22
    SSO_FORM = ("<B23s", "n << 1, raw")
    LONG_FORM = ("<3Q", "(n + 1) | 1, n, d")

    def write(self, space, addr: int, data: bytes, data_addr: int | None) -> None:
        n = len(data)
        if n <= self.sso_capacity:
            space.write(addr, struct.pack(self.SSO_FORM[0], n << 1, bytes(data)))
        else:
            self._write_long(space, data_addr, data)
            cap = (n + 1) | 1  # stored capacity with long-form flag
            space.write(addr, struct.pack(self.LONG_FORM[0], cap, n, data_addr))

    def is_sso(self, space, addr: int) -> bool:
        return (space.read(addr, 1)[0] & 1) == 0

    def locate(self, space, addr: int) -> tuple[int, int]:
        cap, n, data_ptr = space.read_array(addr, "Q", 3)
        if cap & 1:
            return data_ptr, n
        n = (cap & 0xFF) >> 1
        if n > self.sso_capacity:
            raise AbiError(f"SSO string claims size {n} > {self.sso_capacity}")
        return addr + 1, n


_STRING_LAYOUTS = {
    StdLib.LIBSTDCXX: LibstdcxxString(),
    StdLib.LIBCXX: LibcxxString(),
}


def string_layout_for(abi: AbiConfig) -> StringLayout:
    """The ``std::string`` layout the given program uses.

    Which standard library the *host* runs cannot be inferred by the DPU —
    it is transmitted explicitly as part of the ADT (paper §V-C), which is
    why this is a function of the config rather than a global.
    """
    return _STRING_LAYOUTS[abi.stdlib]


_REPEATED_HEADER = struct.Struct("<QII")


@dataclass(frozen=True)
class RepeatedHeader:
    """In-object header of a repeated field::

        T*       elements;  // offset 0, arena-allocated element storage
        uint32_t size;      // offset 8
        uint32_t capacity;  // offset 12

    Element storage is a dense array for scalar element types and an array
    of pointers for string/message element types (RepeatedPtrField analog).
    """

    size: int = 16
    align: int = 8
    codec = _REPEATED_HEADER  # (elements, size, capacity)

    def write(self, space, addr: int, elements_addr: int, count: int) -> None:
        space.write(addr, _REPEATED_HEADER.pack(elements_addr, count, count))

    def read(self, space, addr: int) -> tuple[int, int, int]:
        """Returns (elements_addr, size, capacity)."""
        return _REPEATED_HEADER.unpack(space.view(addr, self.size))


REPEATED_HEADER = RepeatedHeader()
