"""Tests for host-side materialization: CppMessageView and read_message."""

from __future__ import annotations

import copy
import time

import pytest

from repro.abi import REPEATED_HEADER, AbiError
from repro.memory import AddressSpace, Arena, MemoryError_, MemoryRegion
from repro.offload import (
    ArenaDeserializer,
    CppMessageView,
    TypeUniverse,
    read_message,
    verify_object,
)
from repro.offload.materialize import view_class
from repro.offload.view import AdtMessageView
from repro.deploy import build
from repro.proto import compile_schema, serialize
from repro.workloads import bench_service
from repro.xrpc import FrameDecoder, StatusCode, encode_request

ARENA_BASE = 0x0800_0000
ARENA_SIZE = 1 << 18

SRC = """
syntax = "proto3";
package mv;
message Leaf { string tag = 1; }
message M {
  uint32 a = 1;
  string s = 2;
  Leaf leaf = 3;
  repeated int64 xs = 4;
  repeated Leaf leaves = 5;
  bytes blob = 6;
  bool flag = 7;
  double d = 8;
}
"""


@pytest.fixture
def built():
    schema = compile_schema(SRC)
    space = AddressSpace()
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = universe.build_adt([schema.pool.message("mv.M")])
    deser = ArenaDeserializer(adt)
    M = schema["mv.M"]
    msg = M(a=7, s="view me", xs=[-1, 5], blob=b"\x01\x02", flag=True, d=2.5)
    msg.leaf.tag = "child"
    l1 = msg.leaves.add()
    l1.tag = "first"
    arena = Arena(space, ARENA_BASE, ARENA_SIZE)
    addr = deser.deserialize_by_name("mv.M", serialize(msg), arena)
    layout = universe.layouts.layout(schema.pool.message("mv.M"))
    return schema, space, universe, layout, addr, msg


class TestCppMessageView:
    def test_scalar_access(self, built):
        schema, space, universe, layout, addr, msg = built
        view = CppMessageView(universe, layout, addr)
        assert view.a == 7
        assert view.flag is True
        assert view.d == 2.5

    def test_string_and_bytes(self, built):
        _, _, universe, layout, addr, msg = built
        view = CppMessageView(universe, layout, addr)
        assert view.s == "view me"
        assert view.blob == b"\x01\x02"

    def test_nested_view(self, built):
        _, _, universe, layout, addr, msg = built
        view = CppMessageView(universe, layout, addr)
        assert view.leaf.tag == "child"
        assert view.leaf.type_name == "mv.Leaf"

    def test_repeated(self, built):
        _, _, universe, layout, addr, msg = built
        view = CppMessageView(universe, layout, addr)
        assert view.xs == [-1, 5]
        assert [leaf.tag for leaf in view.leaves] == ["first"]

    def test_unset_submessage_returns_default_instance_view(self, built):
        """C++ semantics: unset submessage accessors return the global
        default instance, never null — so servicers can chain accesses
        exactly as with parsed messages."""
        schema, space, universe, layout, addr, _ = built
        deser = ArenaDeserializer(universe.build_adt([schema.pool.message("mv.M")]))
        arena = Arena(space, ARENA_BASE + (1 << 17), 1 << 16)
        empty_addr = deser.deserialize_by_name("mv.M", b"", arena)
        view = CppMessageView(universe, layout, empty_addr)
        assert view.leaf is not None
        assert view.leaf.tag == ""  # all defaults
        assert view.leaf.address == universe.default_instance(
            schema.pool.message("mv.Leaf")
        )
        assert not view.has_field("leaf")  # presence still reports unset
        assert view.xs == []

    def test_has_field(self, built):
        _, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        assert view.has_field("a")
        assert view.has_field("s")

    def test_unknown_field(self, built):
        """A name that is not a field answers as on a parsed message."""
        _, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        with pytest.raises(AttributeError):
            view.zzz

    def test_probing_an_optional_attribute(self, built):
        schema, _, universe, layout, addr, msg = built
        view = CppMessageView(universe, layout, addr)
        for obj in (view, msg):
            assert not hasattr(obj, "nope")
            assert getattr(obj, "nope", "default") == "default"
            assert hasattr(obj, "a") and getattr(obj, "a", None) == 7

    def test_copy(self, built):
        _, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        twin = copy.copy(view)
        assert type(twin) is type(view) and twin.address == addr
        assert (twin.a, twin.s, twin.xs, twin.leaf.tag) == (7, "view me", [-1, 5], "child")

    def test_generated_class_per_layout(self, built):
        schema, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        assert type(view) is view_class(universe, layout)
        assert isinstance(view, CppMessageView) and type(view) is not CppMessageView
        assert type(view.leaf) is view_class(
            universe, universe.layouts.layout(schema.pool.message("mv.Leaf")))

    def test_address_and_repr(self, built):
        _, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        assert view.address == addr
        assert "mv.M" in repr(view)

    def test_fields_enumeration(self, built):
        _, _, universe, layout, addr, _ = built
        view = CppMessageView(universe, layout, addr)
        assert set(view.fields()) == {"a", "s", "leaf", "xs", "leaves", "blob", "flag", "d"}


class TestVerifyObject:
    def test_valid_passes(self, built):
        _, _, universe, layout, addr, _ = built
        verify_object(universe, layout, addr)

    def test_corrupt_vptr_rejected(self, built):
        _, space, universe, layout, addr, _ = built
        space.write_u64(addr, 0x1234)
        with pytest.raises(AbiError, match="vptr"):
            verify_object(universe, layout, addr)

    def test_wrong_type_rejected(self, built):
        schema, space, universe, layout, addr, _ = built
        leaf_layout = universe.layouts.layout(schema.pool.message("mv.Leaf"))
        with pytest.raises(AbiError, match="vptr"):
            CppMessageView(universe, leaf_layout, addr)  # M object as Leaf


class TestReadMessage:
    def test_equals_original(self, built):
        schema, _, universe, _, addr, msg = built
        out = read_message(universe, schema.factory, "mv.M", addr)
        assert out == msg

    def test_scalar_span_is_not_rechecked_per_element(self, built, monkeypatch):
        """The view's span enters the Message through ``extend``'s span
        rule; ``_coerce_scalar`` sees singular fields only."""
        from repro.proto import message as message_mod

        seen = []
        real = message_mod._coerce_scalar
        monkeypatch.setattr(
            message_mod, "_coerce_scalar", lambda fd, v: seen.append(fd.name) or real(fd, v)
        )
        schema, _, universe, _, addr, msg = built
        out = read_message(universe, schema.factory, "mv.M", addr)
        assert out == msg and out.xs == [-1, 5]
        assert "xs" not in seen

    def test_empty_object(self, built):
        schema, space, universe, layout, _, _ = built
        deser = ArenaDeserializer(universe.build_adt([schema.pool.message("mv.M")]))
        arena = Arena(space, ARENA_BASE + (1 << 17), 1 << 16)
        addr = deser.deserialize_by_name("mv.M", b"", arena)
        out = read_message(universe, schema.factory, "mv.M", addr)
        assert out == schema["mv.M"]()


class TestHostileRepeatedHeader:
    """The host dereferences DPU-written memory: whatever a repeated
    header claims, the bulk element read answers with the address space's
    declared error (or an ABI error) and touches nothing out of bounds."""

    VIEWS = ("cpp", "adt")

    @staticmethod
    def _read(kind, built, field="xs"):
        schema, space, universe, layout, addr, _ = built
        if kind == "cpp":
            return getattr(CppMessageView(universe, layout, addr), field)
        adt = universe.build_adt([schema.pool.message("mv.M")])
        return AdtMessageView(adt, adt.index_of("mv.M"), space, addr).field(field)

    @staticmethod
    def _corrupt(built, elems, count, field="xs"):
        _, space, _, layout, addr, _ = built
        REPEATED_HEADER.write(space, addr + layout.offsetof(field), elems, count)

    def _assert_rejected(self, kind, built, field="xs"):
        try:
            self._read(kind, built, field)
        except (MemoryError_, AbiError):
            return
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"undeclared {type(exc).__name__}: {exc}")
        pytest.fail("hostile header was read without an error")

    @pytest.mark.parametrize("kind", VIEWS)
    def test_intact_header_reads(self, kind, built):
        assert self._read(kind, built) == [-1, 5]

    @pytest.mark.parametrize("kind", VIEWS)
    def test_span_past_region_end(self, kind, built):
        # 3 int64 elements starting 16 bytes before the end of the region.
        self._corrupt(built, ARENA_BASE + ARENA_SIZE - 16, 3)
        self._assert_rejected(kind, built)

    @pytest.mark.parametrize("kind", VIEWS)
    def test_count_all_ones(self, kind, built):
        _, space, _, layout, addr, _ = built
        elems, _, _ = REPEATED_HEADER.read(space, addr + layout.offsetof("xs"))
        self._corrupt(built, elems, 2**32 - 1)
        self._assert_rejected(kind, built)

    @pytest.mark.parametrize("kind", VIEWS)
    @pytest.mark.parametrize("elems", [0, 0x10, ARENA_BASE - 8, 0x7000_0000_0000_0000])
    def test_null_or_unmapped_elements(self, kind, elems, built):
        self._corrupt(built, elems, 2)
        self._assert_rejected(kind, built)

    @pytest.mark.parametrize("kind", VIEWS)
    def test_span_straddling_adjacent_regions(self, kind, built):
        # Both halves of the span are mapped — in two different regions.
        # One bounds check covers the whole span, so it must fail rather
        # than read half of it from each backing store.
        _, space, _, _, _, _ = built
        space.map(MemoryRegion(ARENA_BASE + ARENA_SIZE, 4096, "neighbour"))
        self._corrupt(built, ARENA_BASE + ARENA_SIZE - 8, 2)
        self._assert_rejected(kind, built)
        # ... while the same span wholly inside the neighbour is fine.
        self._corrupt(built, ARENA_BASE + ARENA_SIZE, 2)
        assert self._read(kind, built) == [0, 0]

    @pytest.mark.parametrize("kind", VIEWS)
    def test_pointer_array_header(self, kind, built):
        # The repeated-message pointer array is read as one span too.
        self._corrupt(built, ARENA_BASE + ARENA_SIZE - 8, 2**32 - 1, field="leaves")
        self._assert_rejected(kind, built, field="leaves")
        self._corrupt(built, 0, 1, field="leaves")
        self._assert_rejected(kind, built, field="leaves")

    def test_object_itself_out_of_bounds(self, built):
        # The view's one construction-time check covers the whole object.
        _, _, universe, layout, _, _ = built
        with pytest.raises(MemoryError_):
            CppMessageView(universe, layout, ARENA_BASE + ARENA_SIZE - 8)


def test_a_probing_servicer_gets_one_answer_on_both_deployments():
    """A servicer that probes an optional attribute of its request (here:
    ``hasattr`` / ``getattr`` with a default, for names the schema does
    not have) answers the same whether the front end parsed the request
    on the host or the host reads the DPU's object through a view."""
    answers = {}
    for kind in ("baseline", "offloaded"):
        schema, service, servicer = bench_service()
        CharArray = schema["bench.CharArray"]

        class Probing(type(servicer)):
            def Upper(self, request, context):
                return CharArray(data=f"{getattr(request, 'encoding', 'utf-8')}"
                                      f"|{hasattr(request, 'nope')}|{request.data}")

        with build(kind, schema, service, Probing()) as deployment:
            socket, decoder = deployment.connect(), FrameDecoder()
            socket.send(encode_request(1, "/bench.Bench/Upper",
                                       serialize(CharArray(data="probe"))))
            deadline = time.monotonic() + 30.0
            frames = []
            while not frames and time.monotonic() < deadline:
                deployment.drive()
                decoder.feed(socket.recv(1 << 20))
                frames = list(decoder.frames())
        (frame,) = frames
        assert frame.status == StatusCode.OK, (kind, frame.status)
        answers[kind] = schema["bench.CharArray"]().ParseFromString(frame.message).data
    assert answers == {"baseline": "utf-8|False|probe", "offloaded": "utf-8|False|probe"}
