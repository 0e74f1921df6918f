"""The custom protobuf plugin — ``.adt.pb.{h,cc}`` generation (§V-B).

"The ADT is automatically generated by a custom protobuf plugin in
``.adt.pb.{h,cc}`` files ... without any further user intervention.
Each ADT contains a set of all message classes in a given protobuf
definition file, recursively including all nested field message types."

The Python-target analog: :func:`generate_adt_module` emits a module that
embeds the encoded ADT for *all* message types of a ``.proto`` file
(computed under the host ABI at generation time) plus a loader, so a DPU
application can also link the table statically instead of receiving it
over the bootstrap channel.
"""

from __future__ import annotations

import base64
import types

from repro.memory import AddressSpace
from repro.proto.parser import compile_proto

from .adt import TypeUniverse, encode_adt

__all__ = ["build_file_adt", "generate_adt_module", "load_adt_module"]


def build_file_adt(proto_source: str, filename: str = "<proto>"):
    """Build the ADT covering every message type in one proto file,
    recursively including nested field types (§V-B), for the default
    ABI."""
    fd, pool = compile_proto(proto_source, filename)

    def all_messages(messages):
        for m in messages:
            yield m
            yield from all_messages(m.nested_messages)

    roots = list(all_messages(fd.messages))
    space = AddressSpace("adt-gen")
    universe = TypeUniverse(space)
    return universe.build_adt(roots), universe


_TEMPLATE = '''\
"""Generated by repro.offload.plugin (the custom protobuf plugin) — do not edit.

Accelerator Description Table for: {filename}
ABI: {abi_note}
Classes: {class_names}
"""

import base64

from repro.offload.adt import decode_adt

_ADT_BLOB = {blob!r}


def load_adt():
    """Decode the embedded Accelerator Description Table."""
    return decode_adt(base64.b85decode(_ADT_BLOB))


ADT = load_adt()
'''


def generate_adt_module(proto_source: str, filename: str = "<proto>") -> str:
    """Emit the ``.adt.pb``-analog Python source."""
    adt, _universe = build_file_adt(proto_source, filename)
    blob = base64.b85encode(encode_adt(adt)).decode("ascii")
    return _TEMPLATE.format(
        filename=filename,
        abi_note=adt.abi_note,
        class_names=", ".join(e.full_name for e in adt.entries) or "(none)",
        blob=blob,
    )


def load_adt_module(source: str, module_name: str = "generated_adt_pb2") -> types.ModuleType:
    module = types.ModuleType(module_name)
    module.__file__ = f"<{module_name}>"
    exec(compile(source, module.__file__, "exec"), module.__dict__)
    return module
