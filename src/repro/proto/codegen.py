"""Python code generation — the ``protoc`` output analog.

The paper's toolchain transpiles ``.proto`` files into generated sources
(``.pb.{h,cc}``) plus, via its custom plugin, ADT sources
(``.adt.pb.{h,cc}``) "without any further user intervention" (§V-B).
This module is the Python-target equivalent: it emits an importable
module exposing the message classes, enums, service descriptors and
stubs for a schema.

Generated modules are self-contained apart from depending on ``repro``:
they embed the original proto source and rebuild the descriptor pool at
import time, which keeps the generated artifact stable under library
changes (the analog of regenerating from the ``.proto``, which is the
protobuf ecosystem's compatibility contract anyway).

Use :func:`generate_module` to get the source text and
:func:`load_module` to import it in-process (tests do both; applications
would write it next to their code).
"""

from __future__ import annotations

import types

from .parser import parse_proto

__all__ = ["generate_module", "load_module", "protoc"]

_TEMPLATE = '''\
"""Generated by repro.proto.codegen — do not edit.

source: {filename}
"""

from repro.proto import compile_schema
from repro.xrpc.service import assign_method_ids, make_stub_class

PROTO_SOURCE = {source!r}

_schema = compile_schema(PROTO_SOURCE)
DESCRIPTOR_POOL = _schema.pool
MESSAGE_FACTORY = _schema.factory

{message_bindings}
{enum_bindings}
{service_bindings}
'''


def _py_name(full_name: str, package: str) -> str:
    """Binding name for a type: strip the package, join nesting with
    underscores (protoc's Python style)."""
    name = full_name
    if package and name.startswith(package + "."):
        name = name[len(package) + 1 :]
    return name.replace(".", "_")


def generate_module(proto_source: str, filename: str = "<proto>") -> str:
    """Emit the Python module source for ``proto_source``."""
    fd = parse_proto(proto_source, filename)
    package = fd.package

    message_lines = []

    def walk_messages(messages):
        for m in messages:
            message_lines.append(
                f'{_py_name(m.full_name, package)} = '
                f'MESSAGE_FACTORY.get_class_by_name({m.full_name!r})'
            )
            walk_messages(m.nested_messages)
            for e in m.nested_enums:
                _bind_enum(e)

    enum_lines = []

    def _bind_enum(e):
        bind = _py_name(e.full_name, package)
        enum_lines.append(f"{bind} = DESCRIPTOR_POOL.enum({e.full_name!r})")
        for v in e.values:
            enum_lines.append(f"{v.name} = {v.number}")

    walk_messages(fd.messages)
    for e in fd.enums:
        _bind_enum(e)

    service_lines = []
    for svc in fd.services:
        bind = _py_name(svc.full_name, package)
        service_lines.append(
            f"{bind}_SERVICE = DESCRIPTOR_POOL.service({svc.full_name!r})"
        )
        service_lines.append(
            f"{bind}Stub = make_stub_class({bind}_SERVICE, MESSAGE_FACTORY)"
        )
        service_lines.append(
            f"{bind.upper()}_METHOD_IDS = assign_method_ids({bind}_SERVICE)"
        )

    return _TEMPLATE.format(
        filename=filename,
        source=proto_source,
        message_bindings="\n".join(message_lines) or "# (no messages)",
        enum_bindings="\n".join(enum_lines) or "# (no enums)",
        service_bindings="\n".join(service_lines) or "# (no services)",
    )


def load_module(source: str, module_name: str = "generated_pb2") -> types.ModuleType:
    """Execute generated source as an in-process module."""
    module = types.ModuleType(module_name)
    module.__file__ = f"<{module_name}>"
    exec(compile(source, module.__file__, "exec"), module.__dict__)
    return module


def protoc(
    proto_source: str,
    filename: str = "<proto>",
    with_adt: bool = False,
) -> dict[str, str]:
    """The full compiler driver: returns ``{artifact_name: source}``.

    With ``with_adt=True`` the custom plugin runs too and the result
    additionally contains the ``_adt_pb2`` module (paper §V-B: "The ADT
    files are generated when protobuf message definitions are transpiled
    to C++ files with the protoc compiler").
    """
    out = {"pb2": generate_module(proto_source, filename)}
    if with_adt:
        from repro.offload.plugin import generate_adt_module

        out["adt_pb2"] = generate_adt_module(proto_source, filename)
    return out
