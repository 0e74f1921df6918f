"""Tests for the DPU's descriptor-free side of an object: the ADT view
and the object serializer.  Responses are serialized on the host; the
object serializer stays as an oracle, held byte-identical to the
reference serializer for every object the arena deserializer builds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, TypeUniverse, decode_adt, encode_adt
from repro.offload.view import AdtMessageView, serialize_object
from repro.proto import compile_schema, serialize
from tests.conftest import KITCHEN_SINK_PROTO, build_everything
from tests.proto.test_codec_roundtrip import everything_strategy

ARENA_BASE = 0x0600_0000
ARENA_SIZE = 1 << 20


@pytest.fixture(scope="module")
def env():
    schema = compile_schema(KITCHEN_SINK_PROTO)
    space = AddressSpace("host")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = decode_adt(
        encode_adt(universe.build_adt([schema.pool.message("test.Everything")]))
    )
    return schema, space, universe, adt


def decoded_object(env, msg) -> int:
    """``msg`` as the DPU builds it: the arena deserializer's object for
    its wire bytes."""
    _, space, _, adt = env
    arena = Arena(space, ARENA_BASE, ARENA_SIZE)
    return ArenaDeserializer(adt).deserialize_by_name(
        msg.DESCRIPTOR.full_name, serialize(msg), arena)


class TestObjectBuilder:
    def test_empty_message(self, env):
        schema, space, _, adt = env
        addr = decoded_object(env, schema["test.Everything"]())
        idx = adt.index_of("test.Everything")
        assert serialize_object(adt, idx, space, addr) == b""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dpu_serialization_byte_identical_to_reference(self, env, data):
        """The oracle's invariant: serializing an object from the ADT alone
        yields byte-identical wire to the reference serializer."""
        schema, space, _, adt = env
        msg = data.draw(everything_strategy(schema["test.Everything"]))
        addr = decoded_object(env, msg)
        idx = adt.index_of("test.Everything")
        assert serialize_object(adt, idx, space, addr) == serialize(msg)


class TestAdtView:
    def test_vptr_verified(self, env):
        schema, space, _, adt = env
        addr = decoded_object(env, schema["test.Everything"](f_uint32=1))
        # Corrupt the vptr: the view must refuse the object.
        space.write_u64(addr, 0xBAD)
        from repro.abi import AbiError

        with pytest.raises(AbiError, match="vptr"):
            AdtMessageView(adt, adt.index_of("test.Everything"), space, addr)

    def test_unknown_field(self, env):
        schema, space, _, adt = env
        addr = decoded_object(env, schema["test.Everything"]())
        view = AdtMessageView(adt, adt.index_of("test.Everything"), space, addr)
        with pytest.raises(AttributeError):
            view.nonexistent

    def test_view_agrees_with_arena_deserializer_output(self, env):
        """Reading a deserializer-built object through the ADT view gives
        the same values as through the host CppMessageView."""
        schema, space, _, adt = env
        msg = build_everything(schema["test.Everything"])
        addr = decoded_object(env, msg)
        view = AdtMessageView(adt, adt.index_of("test.Everything"), space, addr)
        assert view.f_sint64 == msg.f_sint64
        assert view.f_bytes == msg.f_bytes
        assert [v.label for v in view.r_leaf] == [v.label for v in msg.r_leaf]
