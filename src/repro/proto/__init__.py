"""Protobuf substrate: proto3 parser, descriptors, messages, codec.

This subpackage is a from-scratch implementation of the parts of Protocol
Buffers the paper's system depends on: the proto3 schema language, the
descriptor model, dynamic message classes (the generated-code analog), the
wire format, a reference serializer/deserializer, and UTF-8 validation.

Typical use::

    from repro.proto import compile_schema

    schema = compile_schema('''
        syntax = "proto3";
        package demo;
        message Ping { uint32 seq = 1; string note = 2; }
    ''')
    Ping = schema["demo.Ping"]
    data = Ping(seq=7, note="hi").SerializeToString()
    again = Ping().ParseFromString(data)
"""

from __future__ import annotations

from .descriptor import (
    DescriptorError,
    DescriptorPool,
    EnumDescriptor,
    FieldDescriptor,
    FieldLabel,
    FieldType,
    MessageDescriptor,
    MethodDescriptor,
    ServiceDescriptor,
)
from .deserializer import DECODE_MODES, DecodeError, parse, parse_into
from .fixed_wire import (
    WIRE_FIXED,
    WIRE_STANDARD,
    FixedLayout,
    FixedWireError,
    fixed_eligibility,
    get_fixed_layout,
    negotiation_hash,
    specs_of_descriptor,
)
from .gen_codec import (
    ENCODE_PLAN_METRICS,
    PLAN_METRICS,
    CodecMetrics,
    GeneratedDecoder,
    GeneratedEncoder,
    SizedMessage,
    generate_codec_module,
    get_gen_decoder,
    get_gen_encoder,
)
from .message import FieldValueError, Message, MessageFactory
from .parser import ProtoParseError, compile_proto, parse_proto
from .serializer import (
    ENCODE_MODES,
    EncodeError,
    emit_writer,
    prepare_emit,
    serialize,
    serialize_into,
    serialized_size,
)
from .utf8 import Utf8Error, validate_utf8
from .wire_format import (
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
    read_varint,
    varint_size,
)

__all__ = [
    "CompiledSchema",
    "compile_schema",
    "DescriptorError",
    "DescriptorPool",
    "EnumDescriptor",
    "FieldDescriptor",
    "FieldLabel",
    "FieldType",
    "MessageDescriptor",
    "MethodDescriptor",
    "ServiceDescriptor",
    "DecodeError",
    "parse",
    "parse_into",
    "DECODE_MODES",
    "CodecMetrics",
    "PLAN_METRICS",
    "ENCODE_PLAN_METRICS",
    "SizedMessage",
    "GeneratedDecoder",
    "GeneratedEncoder",
    "get_gen_decoder",
    "get_gen_encoder",
    "generate_codec_module",
    "WIRE_FIXED",
    "WIRE_STANDARD",
    "FixedLayout",
    "FixedWireError",
    "fixed_eligibility",
    "get_fixed_layout",
    "negotiation_hash",
    "specs_of_descriptor",
    "FieldValueError",
    "Message",
    "MessageFactory",
    "ProtoParseError",
    "compile_proto",
    "parse_proto",
    "serialize",
    "serialize_into",
    "serialized_size",
    "prepare_emit",
    "emit_writer",
    "ENCODE_MODES",
    "EncodeError",
    "Utf8Error",
    "validate_utf8",
    "TruncatedMessageError",
    "WireFormatError",
    "WireType",
    "encode_varint",
    "read_varint",
    "varint_size",
    "encode_zigzag",
    "decode_zigzag",
]


class CompiledSchema:
    """The result of compiling one or more .proto sources: a descriptor
    pool, a message factory, and name-indexed access to generated classes
    and services."""

    def __init__(self) -> None:
        self.pool = DescriptorPool()
        self.factory = MessageFactory(self.pool)

    def add(self, source: str, filename: str = "<string>") -> "CompiledSchema":
        compile_proto(source, filename, self.pool)
        return self

    def __getitem__(self, full_name: str) -> type[Message]:
        return self.factory.get_class_by_name(full_name)

    def service(self, full_name: str) -> ServiceDescriptor:
        return self.pool.service(full_name)

    def messages(self) -> list[MessageDescriptor]:
        return self.pool.messages()


def compile_schema(*sources: str) -> CompiledSchema:
    """Compile proto3 source text(s) into a :class:`CompiledSchema`."""
    schema = CompiledSchema()
    for i, src in enumerate(sources):
        schema.add(src, filename=f"<source-{i}>")
    return schema
