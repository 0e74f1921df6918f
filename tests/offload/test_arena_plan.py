"""Generated arena decoders: the offloaded fast path must be
indistinguishable from the interpretive arena deserializer — same objects
(read back through ``read_message``), same arena consumption, and the same
:class:`DeserializeStats` census (the calibrated cost model charges time
per census operation, so a decoder that decoded differently would silently
skew every modeled figure).

(The file and ``TestPlanCache`` still say "plan": the closure-table plan
tier these tests were written against is gone, the test ids stay.)"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import (
    ArenaDeserializer,
    ArenaGenCache,
    TypeUniverse,
    decode_adt,
    encode_adt,
    read_message,
)
from repro.proto import PLAN_METRICS, compile_schema, parse, serialize
from repro.proto.wire_format import WireFormatError, WireType, encode_varint, make_tag
from tests.conftest import KITCHEN_SINK_PROTO, build_everything
from tests.proto.test_codec_roundtrip import everything_strategy
from tests.proto.test_decode_plan import (
    KIND_MATRIX_PROTO,
    KIND_MATRIX_RAWS,
    VARINT_KINDS,
    kind_matrix_value,
    kind_matrix_wires,
)

ARENA_BASE = 0x5000_0000
ARENA_SIZE = 1 << 20


@pytest.fixture(scope="module")
def kitchen_env():
    schema = compile_schema(KITCHEN_SINK_PROTO)
    space = AddressSpace("host")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = decode_adt(
        encode_adt(universe.build_adt([schema.pool.message("test.Everything")]))
    )
    return schema, space, universe, adt


@pytest.fixture(scope="module")
def kind_matrix_env():
    schema = compile_schema(KIND_MATRIX_PROTO)
    space = AddressSpace("host")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = decode_adt(
        encode_adt(universe.build_adt([schema.pool.message("km.KindMatrix")]))
    )
    return schema, space, universe, adt


#: Both arena decode tiers; they must be observationally identical.
MODES = ("generated", "interpretive")


def both_modes(env, wire, root="test.Everything"):
    """Deserialize ``wire`` with both tiers; assert object and census
    identity; return the generated-mode message."""
    schema, space, universe, adt = env
    results = {}
    for mode in MODES:
        deser = ArenaDeserializer(adt, mode=mode)
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        addr = deser.deserialize_by_name(root, wire, arena)
        out = read_message(universe, schema.factory, root, addr)
        results[mode] = (out, asdict(deser.stats), arena.used)
    i_out, i_stats, i_used = results["interpretive"]
    for mode in MODES:
        out, stats, used = results[mode]
        assert out == i_out, f"{mode} decoded a different object"
        assert stats == i_stats, f"{mode}: DeserializeStats census must be identical"
        assert used == i_used, f"{mode}: arena consumption must be identical"
    return results["generated"][0]


def raises_both(env, wire, root="test.Everything"):
    schema, space, universe, adt = env
    errors = {}
    for mode in MODES:
        deser = ArenaDeserializer(adt, mode=mode)
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        with pytest.raises(WireFormatError) as exc_info:
            deser.deserialize_by_name(root, wire, arena)
        errors[mode] = type(exc_info.value).__name__
    # The interpretive tier words some diagnostics differently, so the
    # tiers are held to error-type parity, not message text.
    assert errors["generated"] == errors["interpretive"], errors


class TestAgainstInterpretive:
    def test_kitchen_sink(self, kitchen_env):
        schema = kitchen_env[0]
        msg = build_everything(schema["test.Everything"])
        assert both_modes(kitchen_env, serialize(msg)) == msg

    def test_empty(self, kitchen_env):
        schema = kitchen_env[0]
        assert both_modes(kitchen_env, b"") == schema["test.Everything"]()

    def test_oneof_last_wins(self, kitchen_env):
        schema = kitchen_env[0]
        cls = schema["test.Everything"]
        wire = serialize(cls(choice_s="gone")) + serialize(cls(choice_u=9))
        msg = both_modes(kitchen_env, wire)
        assert msg.choice_u == 9
        assert "choice_s" not in msg._values

    def test_submessage_merge(self, kitchen_env):
        schema = kitchen_env[0]
        cls = schema["test.Everything"]
        a = cls()
        a.f_leaf.id = 3
        b = cls()
        b.f_leaf.label = "merged"
        msg = both_modes(kitchen_env, serialize(a) + serialize(b))
        assert msg.f_leaf.id == 3
        assert msg.f_leaf.label == "merged"

    @pytest.mark.parametrize("kind", VARINT_KINDS)
    def test_varint_kind_matrix(self, kind_matrix_env, kind):
        """The arena half of ``tests/proto/test_decode_plan.py``'s matrix:
        both arena tiers, read back through the host view, hold the value
        the reference oracle decodes from the same bytes — for every raw
        varint, over-wide ones included, in every form."""
        cls = kind_matrix_env[0]["km.KindMatrix"]
        for raw in KIND_MATRIX_RAWS:
            seen = set()
            for name, wire, count in kind_matrix_wires(kind, raw).values():
                msg = both_modes(kind_matrix_env, wire, root="km.KindMatrix")
                assert msg == parse(cls, wire, mode="interpretive")
                seen.add(kind_matrix_value(msg, name, count))
            assert len(seen) == 1, (kind, raw, seen)

    def test_unknown_fields_skipped(self, kitchen_env):
        # The arena path drops unknown fields (the DPU builds C++ objects,
        # which have no unknown-field set) — in both modes alike.
        unknown = encode_varint(make_tag(999, WireType.VARINT)) + b"\x07"
        schema = kitchen_env[0]
        wire = unknown + serialize(schema["test.Everything"](f_uint32=4))
        assert both_modes(kitchen_env, wire).f_uint32 == 4

    def test_unknown_field_overrunning_submessage_rejected(self, kitchen_env):
        # Same boundary regression as the reference decoder: an unknown
        # length-delimited field inside f_leaf claiming bytes past the
        # submessage end.
        body = (
            encode_varint(make_tag(1, WireType.VARINT))
            + b"\x05"
            + encode_varint(make_tag(1000, WireType.LENGTH_DELIMITED))
            + b"\x20"
        )
        schema = kitchen_env[0]
        wire = (
            encode_varint(make_tag(17, WireType.LENGTH_DELIMITED))
            + encode_varint(len(body))
            + body
            + serialize(schema["test.Everything"](f_bytes=b"x" * 40))
        )
        raises_both(kitchen_env, wire)

    def test_wrong_wire_type_rejected(self, kitchen_env):
        wire = encode_varint(make_tag(14, WireType.VARINT)) + b"\x01"
        raises_both(kitchen_env, wire)

    def test_truncated_varint_value_rejected(self, kitchen_env):
        raises_both(kitchen_env, encode_varint(make_tag(3, WireType.VARINT)))

    def test_packed_fixed_run_length_mismatch_rejected(self, kitchen_env):
        wire = (
            encode_varint(make_tag(22, WireType.LENGTH_DELIMITED))
            + encode_varint(9)
            + b"\x00" * 9
        )
        raises_both(kitchen_env, wire)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_differential_fuzz(self, data, kitchen_env):
        schema = kitchen_env[0]
        msg = data.draw(everything_strategy(schema["test.Everything"]))
        assert both_modes(kitchen_env, serialize(msg)) == msg


def _decode_once(env, deser):
    schema, space, universe, adt = env
    wire = serialize(build_everything(schema["test.Everything"]))
    deser.deserialize_by_name(
        "test.Everything", wire, Arena(space, ARENA_BASE, ARENA_SIZE)
    )


class TestPlanCache:
    def test_plans_compiled_once_per_entry(self, kitchen_env):
        # No ``mode=``: the default tier is the generated one.
        deser = ArenaDeserializer(kitchen_env[3])
        assert deser.mode == "generated"
        PLAN_METRICS.reset()
        for _ in range(3):
            _decode_once(kitchen_env, deser)
        # Everything + Leaf compile once; every later (sub)message parse
        # is a cache hit.
        assert PLAN_METRICS.gen_compiles == 2
        assert PLAN_METRICS.gen_cache_hits > 0

    def test_plan_cache_lazy_and_shared(self, kitchen_env):
        adt = kitchen_env[3]
        deser = ArenaDeserializer(adt)
        assert deser._gen_cache is None
        cache = deser.gen_plans
        assert isinstance(cache, ArenaGenCache)
        assert deser.gen_plans is cache

    def test_interpretive_mode_never_compiles(self, kitchen_env):
        deser = ArenaDeserializer(kitchen_env[3], mode="interpretive")
        PLAN_METRICS.reset()
        _decode_once(kitchen_env, deser)
        assert PLAN_METRICS.gen_compiles == 0
        assert deser._gen_cache is None

    def test_mode_set_after_construction_is_honoured(self, kitchen_env):
        """Regression: ``deserialize`` used to consult a flag cached in
        ``__init__``, so flipping ``mode`` on a live deserializer (what the
        containment and differential tests do) kept decoding through the
        compiled tier."""
        deser = ArenaDeserializer(kitchen_env[3])
        PLAN_METRICS.reset()
        _decode_once(kitchen_env, deser)
        compiled, hits = PLAN_METRICS.gen_compiles, PLAN_METRICS.gen_cache_hits
        assert compiled == 2

        deser.mode = "interpretive"
        _decode_once(kitchen_env, deser)
        assert (PLAN_METRICS.gen_compiles, PLAN_METRICS.gen_cache_hits) == (compiled, hits)

        deser.mode = "generated"
        _decode_once(kitchen_env, deser)
        assert PLAN_METRICS.gen_compiles == compiled
        assert PLAN_METRICS.gen_cache_hits > hits

        deser.mode = "plan"
        with pytest.raises(ValueError, match="unknown arena decode mode"):
            _decode_once(kitchen_env, deser)


class TestGeneratedCache:
    def test_generated_compiled_once_per_entry(self, kitchen_env):
        schema, space, universe, adt = kitchen_env
        deser = ArenaDeserializer(adt, mode="generated")
        wire = serialize(build_everything(schema["test.Everything"]))
        PLAN_METRICS.reset()
        for _ in range(3):
            deser.deserialize_by_name(
                "test.Everything", wire, Arena(space, ARENA_BASE, ARENA_SIZE)
            )
        assert PLAN_METRICS.gen_compiles == 2  # Everything + Leaf
        assert PLAN_METRICS.gen_cache_hits > 0
        assert PLAN_METRICS.gen_source_bytes > 0
        assert PLAN_METRICS.gen_compile_ns > 0

    def test_generated_source_is_inspectable(self, kitchen_env):
        schema, space, universe, adt = kitchen_env
        deser = ArenaDeserializer(adt, mode="generated")
        wire = serialize(build_everything(schema["test.Everything"]))
        deser.deserialize_by_name(
            "test.Everything", wire, Arena(space, ARENA_BASE, ARENA_SIZE)
        )
        root = next(
            i for i, e in enumerate(adt.entries) if e.full_name == "test.Everything"
        )
        source = deser.gen_plans.source(root)
        assert "def _decode(" in source
        assert "test.Everything" in source

    def test_invalid_mode_rejected(self, kitchen_env):
        from repro.offload.arena_deserializer import DeserializeError

        with pytest.raises((ValueError, DeserializeError)):
            ArenaDeserializer(kitchen_env[3], mode="jit")


# A fixed-layout-eligible schema for the WIRE_FIXED arena decoder.
FIXED_PROTO = """
syntax = "proto3";
package fx;
message Sample {
  double t = 1;
  int32 delta = 2;
  uint64 seq = 3;
  bool ok = 4;
  repeated int32 values = 5;
  repeated double series = 6;
  string origin = 7;
  bytes blob = 8;
}
"""


@pytest.fixture(scope="module")
def fixed_env():
    schema = compile_schema(FIXED_PROTO)
    space = AddressSpace("host")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = decode_adt(
        encode_adt(universe.build_adt([schema.pool.message("fx.Sample")]))
    )
    return schema, space, universe, adt


class TestFixedArenaDecode:
    def _roundtrip(self, env, msg):
        """Encode on the client's descriptor-side layout, decode through
        the ADT-side arena fixed decoder, read the object back."""
        from repro.proto import get_fixed_layout, parse

        schema, space, universe, adt = env
        cls = schema["fx.Sample"]
        layout = get_fixed_layout(cls.DESCRIPTOR, schema.factory)
        assert layout is not None
        wire = layout.encode(msg)
        deser = ArenaDeserializer(adt, mode="generated")
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        root = next(i for i, e in enumerate(adt.entries) if e.full_name == "fx.Sample")
        assert deser.estimate_size_fixed(root, wire) <= ARENA_SIZE
        addr = deser.deserialize_fixed(root, wire, arena)
        out = read_message(universe, schema.factory, "fx.Sample", addr)
        # Parity oracle: the standard-wire round trip of the same message.
        assert out == parse(cls, serialize(msg))
        return out, deser.stats

    def test_fixed_decode_matches_standard_roundtrip(self, fixed_env):
        cls = fixed_env[0]["fx.Sample"]
        msg = cls(
            t=2.5, delta=-7, seq=1 << 40, ok=True,
            values=[1, -2, 3], series=[0.5, -1.25], origin="héllo", blob=b"\x00\xff",
        )
        out, stats = self._roundtrip(fixed_env, msg)
        assert list(out.values) == [1, -2, 3]
        assert stats.messages == 1
        assert stats.fixed_fields > 0
        assert stats.utf8_bytes_validated == len("héllo".encode())

    def test_fixed_decode_empty(self, fixed_env):
        cls = fixed_env[0]["fx.Sample"]
        assert self._roundtrip(fixed_env, cls())[0] == cls()

    def test_fixed_layouts_agree_across_sides(self, fixed_env):
        """The ADT-side layout (what the DPU decodes with) and the
        descriptor-side layout (what the client encodes with) must hash
        identically — that is what the SETUP handshake certifies."""
        from repro.proto import get_fixed_layout

        schema, space, universe, adt = fixed_env
        cls = schema["fx.Sample"]
        client_side = get_fixed_layout(cls.DESCRIPTOR, schema.factory)
        deser = ArenaDeserializer(adt)
        root = next(i for i, e in enumerate(adt.entries) if e.full_name == "fx.Sample")
        dpu_side, _fields = deser.fixed_layout_for(root)
        assert dpu_side.layout_lines() == client_side.layout_lines()
        assert dpu_side.layout_hash() == client_side.layout_hash()
        assert dpu_side.layout_hash("s") != client_side.layout_hash()

    def test_fixed_decode_truncation_rejected(self, fixed_env):
        from repro.proto import get_fixed_layout

        schema, space, universe, adt = fixed_env
        cls = schema["fx.Sample"]
        layout = get_fixed_layout(cls.DESCRIPTOR, schema.factory)
        wire = layout.encode(cls(values=[1, 2, 3], blob=b"xyz"))
        deser = ArenaDeserializer(adt)
        root = next(i for i, e in enumerate(adt.entries) if e.full_name == "fx.Sample")
        for bad in (wire[: layout.fixed_size - 1], wire[:-1], wire + b"\x00"):
            with pytest.raises(WireFormatError):
                deser.deserialize_fixed(root, bad, Arena(space, ARENA_BASE, ARENA_SIZE))

    def test_a_lying_count_is_rejected_by_the_estimate(self):
        """The arena bound is read out of the count slots, so they are
        proven first: 12 bytes announcing 200 000 ints must not size an
        800 160-byte reservation."""
        import struct

        from repro.offload.arena_deserializer import DeserializeError

        schema = compile_schema(
            'syntax = "proto3"; package lie; '
            "message M { int32 a = 1; string s = 2; repeated int32 r = 3; }"
        )
        space = AddressSpace("host")
        adt = TypeUniverse(space).build_adt([schema.pool.message("lie.M")])
        deser = ArenaDeserializer(adt)
        assert deser.estimate_size_fixed(0, struct.pack("<iII", 0, 0, 0)) < 256
        with pytest.raises(DeserializeError, match="array overruns fixed payload"):
            deser.estimate_size_fixed(0, struct.pack("<iII", 0, 0, 200_000))
