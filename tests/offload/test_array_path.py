"""Repeated scalars travel as arrays: wire run -> ndarray -> element bytes
-> one arena write -> one span read on the host.  For every packable
scalar kind the object read back through the views must equal the
reference parse — for a single packed run, for packed and unpacked
occurrences of the same field interleaved, and for a merge-append onto an
array the object already carries — identically in both arena tiers,
with an identical :class:`DeserializeStats` census."""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, CppMessageView, TypeUniverse
from repro.offload.view import AdtMessageView
from repro.proto import compile_schema, parse, serialize
from repro.proto.wire_format import WireType, encode_varint, make_tag

ARENA_BASE = 0x6000_0000
ARENA_SIZE = 1 << 20
MODES = ("interpretive", "generated")

_FIELDS = """
  repeated bool f_bool = 1;
  repeated int32 f_int32 = 2;
  repeated sint32 f_sint32 = 3;
  repeated uint32 f_uint32 = 4;
  repeated int64 f_int64 = 5;
  repeated sint64 f_sint64 = 6;
  repeated uint64 f_uint64 = 7;
  repeated Color f_enum = 8;
  repeated fixed32 f_fixed32 = 9;
  repeated sfixed32 f_sfixed32 = 10;
  repeated fixed64 f_fixed64 = 11;
  repeated sfixed64 f_sfixed64 = 12;
  repeated float f_float = 13;
  repeated double f_double = 14;
"""

SRC = f"""
syntax = "proto3";
package arr;
enum Color {{ NONE = 0; RED = 1; BLUE = 2; FAR = 100000; }}
message Arr {{ {_FIELDS} }}
message ArrUnpacked {{ {_FIELDS.replace(";", " [packed = false];")} }}
message Holder {{ Arr arr = 1; }}
"""

_I32 = st.integers(-(2**31), 2**31 - 1)
_U32 = st.integers(0, 2**32 - 1)
_I64 = st.integers(-(2**63), 2**63 - 1)
_U64 = st.integers(0, 2**64 - 1)

ELEMENTS = {
    "f_bool": st.booleans(),
    "f_int32": _I32,
    "f_sint32": _I32,
    "f_uint32": _U32,
    "f_int64": _I64,
    "f_sint64": _I64,
    "f_uint64": _U64,
    "f_enum": st.sampled_from([0, 1, 2, 100000]),
    "f_fixed32": _U32,
    "f_sfixed32": _I32,
    "f_fixed64": _U64,
    "f_sfixed64": _I64,
    "f_float": st.floats(width=32, allow_nan=False),
    "f_double": st.floats(allow_nan=False),
}
KINDS = sorted(ELEMENTS)


@pytest.fixture(scope="module")
def env():
    schema = compile_schema(SRC)
    space = AddressSpace("host")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = universe.build_adt(
        [schema.pool.message("arr.Arr"), schema.pool.message("arr.Holder")]
    )
    return schema, space, universe, adt


def chunks_of(name):
    """(packed?, values) occurrences of field ``name``, in wire order."""
    return st.lists(
        st.tuples(st.booleans(), st.lists(ELEMENTS[name], min_size=1, max_size=40)),
        min_size=1,
        max_size=5,
    )


def occurrences_wire(schema, name, chunks) -> bytes:
    """Each chunk as one packed run, or as unpacked elements."""
    packed_cls, unpacked_cls = schema["arr.Arr"], schema["arr.ArrUnpacked"]
    return b"".join(
        serialize((packed_cls if packed else unpacked_cls)(**{name: values}))
        for packed, values in chunks
    )


def arena_read(env, root, wire, read):
    """Decode ``wire`` in every arena tier; ``read(cpp_view, adt_view)``
    what the test compares.  Asserts the tiers agree on it and on the
    census; returns the (shared) result and census."""
    schema, space, universe, adt = env
    layout = universe.layouts.layout(schema.pool.message(root))
    results = {}
    for mode in MODES:
        deser = ArenaDeserializer(adt, mode=mode)
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        addr = deser.deserialize_by_name(root, wire, arena)
        cpp = CppMessageView(universe, layout, addr)
        dpu = AdtMessageView(adt, adt.index_of(root), space, addr)
        results[mode] = (read(cpp, dpu), asdict(deser.stats), arena.used)
    for mode in MODES[1:]:
        assert results[mode] == results[MODES[0]], f"{mode} differs from interpretive"
    return results[MODES[0]][:2]


def both_views(name):
    def read(cpp, dpu):
        values = getattr(cpp, name)
        assert dpu.field(name) == values, "AdtMessageView and CppMessageView disagree"
        assert type(values) is list
        return values

    return read


@pytest.mark.parametrize("name", KINDS)
class TestArrayPathParity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_packed_run(self, env, name, data):
        values = data.draw(st.lists(ELEMENTS[name], max_size=600))
        cls = env[0]["arr.Arr"]
        wire = serialize(cls(**{name: values}))
        got, stats = arena_read(env, "arr.Arr", wire, both_views(name))
        assert got == list(getattr(parse(cls, wire), name))
        assert stats["array_elements"] == len(values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_packed_and_unpacked_interleaved(self, env, name, data):
        chunks = data.draw(chunks_of(name))
        schema = env[0]
        wire = occurrences_wire(schema, name, chunks)
        got, stats = arena_read(env, "arr.Arr", wire, both_views(name))
        expected = list(getattr(parse(schema["arr.Arr"], wire), name))
        assert got == expected
        assert len(got) == sum(len(values) for _, values in chunks)
        assert stats["array_elements"] == len(got)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_merge_append_onto_existing_array(self, env, name, data):
        # A singular submessage occurring more than once is merged: each
        # later occurrence appends to the array the object already has.
        occurrences = data.draw(st.lists(chunks_of(name), min_size=2, max_size=3))
        schema = env[0]
        tag = encode_varint(make_tag(1, WireType.LENGTH_DELIMITED))
        wire = b""
        for chunks in occurrences:
            body = occurrences_wire(schema, name, chunks)
            wire += tag + encode_varint(len(body)) + body

        def read(cpp, dpu):
            values = getattr(cpp.arr, name)
            assert dpu.field("arr").field(name) == values
            return values

        got, _ = arena_read(env, "arr.Holder", wire, read)
        assert got == list(getattr(parse(schema["arr.Holder"], wire).arr, name))
        assert len(got) == sum(len(v) for chunks in occurrences for _, v in chunks)


def test_unpacked_schema_really_is_unpacked(env):
    # Guards the helper above: the [packed = false] twin must put one
    # natural-wire-type tag per element on the wire.
    schema = env[0]
    wire = serialize(schema["arr.ArrUnpacked"](f_uint32=[1, 2, 3]))
    tag = make_tag(4, WireType.VARINT)
    assert wire == bytes([tag, 1, tag, 2, tag, 3])
    assert serialize(schema["arr.Arr"](f_uint32=[1, 2, 3])) == bytes(
        [make_tag(4, WireType.LENGTH_DELIMITED), 3, 1, 2, 3]
    )
