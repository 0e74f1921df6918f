"""C++ ABI model: object layout, std::string internals, compatibility.

Models everything the DPU must know about the host's binary interface to
construct objects the host can use directly (paper §V-A..C): Itanium-style
class layout (sizeof / alignof / offsetof, vptr), libstdc++ and libc++
``std::string`` layouts with small-string optimization, repeated-field
headers, and the recursive binary-compatibility check.
"""

from .compat import CompatReport, Incompatibility, check_compatibility
from .cpp_types import (
    POINTER_SIZE,
    PRIMITIVES,
    REPEATED_HEADER,
    AbiConfig,
    AbiError,
    Arch,
    Compiler,
    LibcxxString,
    LibstdcxxString,
    PrimitiveType,
    RepeatedHeader,
    StdLib,
    StringLayout,
    string_layout_for,
)
from .layout import (
    MEMBER_PRIMITIVE,
    FieldSlot,
    LayoutCache,
    MessageLayout,
    member_primitive,
)

__all__ = [
    "CompatReport",
    "Incompatibility",
    "check_compatibility",
    "POINTER_SIZE",
    "PRIMITIVES",
    "REPEATED_HEADER",
    "AbiConfig",
    "AbiError",
    "Arch",
    "Compiler",
    "LibcxxString",
    "LibstdcxxString",
    "PrimitiveType",
    "RepeatedHeader",
    "StdLib",
    "StringLayout",
    "string_layout_for",
    "FieldSlot",
    "LayoutCache",
    "MessageLayout",
    "MEMBER_PRIMITIVE",
    "member_primitive",
]
