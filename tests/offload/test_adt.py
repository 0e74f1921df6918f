"""Tests for the Accelerator Description Table and the TypeUniverse."""

from __future__ import annotations

import dataclasses

import pytest

from repro.abi import AbiConfig, StdLib
from repro.memory import AddressSpace
from repro.offload import TypeUniverse, decode_adt, encode_adt
from repro.offload.adt import GLOBALS_BASE, AdtError
from repro.proto import compile_schema
from repro.proto.descriptor import FieldType

SCHEMA = """
syntax = "proto3";
package t;
message Leaf { string tag = 1; }
message Mid { Leaf leaf = 1; repeated int32 xs = 2; }
message Root { uint64 k = 1; Mid mid = 2; string s = 3; }
message Unrelated { bool b = 1; }
"""


@pytest.fixture
def setup():
    schema = compile_schema(SCHEMA)
    space = AddressSpace("host")
    universe = TypeUniverse(space, AbiConfig())
    return schema, space, universe


class TestTypeUniverse:
    def test_vtable_addresses_stable_and_distinct(self, setup):
        schema, _, universe = setup
        root = schema.pool.message("t.Root")
        leaf = schema.pool.message("t.Leaf")
        assert universe.vtable_address(root) == universe.vtable_address(root)
        assert universe.vtable_address(root) != universe.vtable_address(leaf)
        assert universe.vtable_address(root) >= GLOBALS_BASE

    def test_default_instance_has_vptr(self, setup):
        schema, space, universe = setup
        root = schema.pool.message("t.Root")
        addr = universe.default_instance(root)
        layout = universe.layouts.layout(root)
        assert layout.read_vptr(space, addr) == universe.vtable_address(root)

    def test_default_strings_are_empty_sso(self, setup):
        schema, space, universe = setup
        root = schema.pool.message("t.Root")
        addr = universe.default_instance(root)
        layout = universe.layouts.layout(root)
        slot = layout.slot("s")
        assert layout.string_layout.read(space, addr + slot.offset) == b""
        assert layout.string_layout.is_sso(space, addr + slot.offset)

    def test_default_message_pointers_null(self, setup):
        schema, space, universe = setup
        root = schema.pool.message("t.Root")
        addr = universe.default_instance(root)
        layout = universe.layouts.layout(root)
        assert space.read_u64(addr + layout.offsetof("mid")) == 0

    def test_default_instance_idempotent(self, setup):
        schema, _, universe = setup
        root = schema.pool.message("t.Root")
        assert universe.default_instance(root) == universe.default_instance(root)


class TestAdtBuild:
    def test_transitive_closure(self, setup):
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Root")])
        names = {e.full_name for e in adt.entries}
        assert names == {"t.Root", "t.Mid", "t.Leaf"}  # not Unrelated

    def test_per_class_not_per_instance(self, setup):
        """§V-B: metadata is per class — one entry regardless of how many
        roots reference the type."""
        schema, _, universe = setup
        adt = universe.build_adt(
            [schema.pool.message("t.Root"), schema.pool.message("t.Mid")]
        )
        assert len([e for e in adt.entries if e.full_name == "t.Leaf"]) == 1

    def test_child_indices_resolve(self, setup):
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Root")])
        root = adt.entry_by_name("t.Root")
        mid_field = root.field_by_number(2)
        assert adt.entry(mid_field.child).full_name == "t.Mid"
        leaf_field = adt.entry(mid_field.child).field_by_number(1)
        assert adt.entry(leaf_field.child).full_name == "t.Leaf"

    def test_field_offsets_match_layout(self, setup):
        schema, _, universe = setup
        root_desc = schema.pool.message("t.Root")
        adt = universe.build_adt([root_desc])
        layout = universe.layouts.layout(root_desc)
        entry = adt.entry_by_name("t.Root")
        for f in entry.fields:
            assert f.offset == layout.offsetof(f.name)

    def test_default_bytes_length(self, setup):
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Root")])
        for e in adt.entries:
            assert len(e.default_bytes) == e.sizeof


class TestAdtCodec:
    def test_roundtrip(self, setup):
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Root")])
        again = decode_adt(encode_adt(adt))
        assert again.stdlib == adt.stdlib
        assert again.abi_note == adt.abi_note
        assert len(again.entries) == len(adt.entries)
        for a, b in zip(adt.entries, again.entries):
            assert a.full_name == b.full_name
            assert a.sizeof == b.sizeof
            assert a.alignof == b.alignof
            assert a.vtable_addr == b.vtable_addr
            assert a.default_addr == b.default_addr
            assert a.default_bytes == b.default_bytes
            assert a.fields == b.fields

    def test_stdlib_transmitted(self, setup):
        """§V-C: which std::string layout the host uses must be sent
        explicitly — the DPU cannot infer it."""
        schema, _, _ = setup
        space = AddressSpace("host2")
        universe = TypeUniverse(space, AbiConfig(stdlib=StdLib.LIBCXX))
        adt = universe.build_adt([schema.pool.message("t.Leaf")])
        assert decode_adt(encode_adt(adt)).stdlib is StdLib.LIBCXX

    def test_bad_magic(self):
        with pytest.raises(AdtError):
            decode_adt(b"NOPE....")

    @pytest.mark.parametrize("hostile", [
        "magic only", "stdlib byte 2", "non-UTF-8 note", "trailing byte",
        "message child -1", "message child past the end", "scalar child 0",
    ])
    def test_hostile_blob_is_adt_error(self, setup, hostile):
        """Each of these used to escape as IndexError / UnicodeDecodeError,
        or decode into a table whose −1 child names the last entry."""
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Root")])
        mid = adt.entry_by_name("t.Mid")
        leaf_field, xs_field = mid.fields  # Leaf leaf = 1; repeated int32 xs = 2
        assert leaf_field.kind is FieldType.MESSAGE and xs_field.child == -1

        def with_mid_field(i: int, child: int) -> bytes:
            mid.fields[i] = dataclasses.replace(mid.fields[i], child=child)
            return encode_adt(adt)

        blob = bytearray(encode_adt(adt))
        if hostile == "magic only":
            blob = b"ADT2"
        elif hostile == "stdlib byte 2":
            blob[4] = 2
        elif hostile == "non-UTF-8 note":
            blob[7] = 0xFF  # first byte of the ABI note, after its u16 length
        elif hostile == "trailing byte":
            blob += b"\0"
        elif hostile == "message child -1":
            blob = with_mid_field(0, -1)
        elif hostile == "message child past the end":
            blob = with_mid_field(0, len(adt.entries))
        else:
            blob = with_mid_field(1, 0)
        with pytest.raises(AdtError):
            decode_adt(bytes(blob))

    def test_unknown_name_lookup(self, setup):
        schema, _, universe = setup
        adt = universe.build_adt([schema.pool.message("t.Leaf")])
        with pytest.raises(AdtError):
            adt.index_of("t.Root")
