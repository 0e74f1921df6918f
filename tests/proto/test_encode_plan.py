"""The generated encoders (``repro.proto.gen_codec``): differential
parity against the interpretive serializer, direct-buffer emission, codec
cache and metrics.

The contract mirrors the decode one: **for every message, the generated
and interpretive encoders either produce byte-identical output or both
raise the same error class.**  Round-trips additionally go through
``serialize_into`` and both decode modes.

(The file, and a few class and test names in it, still say "plan": the
closure-table plan tier these tests were written against is gone, the
test ids stay.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRegistry
from repro.proto import (
    ENCODE_MODES,
    ENCODE_PLAN_METRICS,
    EncodeError,
    compile_schema,
    get_fixed_layout,
    get_gen_encoder,
    parse,
    prepare_emit,
    serialize,
    serialize_into,
    serialized_size,
)
from repro.proto.gen_codec import _BULK_MIN

from tests.conftest import build_everything
from tests.proto.test_codec_roundtrip import everything_strategy

MODES = ("generated", "interpretive")


def both(msg):
    """Serialize in both modes, assert parity, return the bytes."""
    gen = serialize(msg, mode="generated")
    interp = serialize(msg, mode="interpretive")
    assert gen == interp
    assert serialized_size(msg, mode="generated") == len(gen)
    assert serialized_size(msg, mode="interpretive") == len(gen)
    return gen


# ---------------------------------------------------------------------------
# Mode selection
# ---------------------------------------------------------------------------


class TestModeSelection:
    def test_default_is_generated(self, everything_cls):
        assert ENCODE_MODES == MODES
        msg = build_everything(everything_cls)
        name = everything_cls.DESCRIPTOR.full_name
        ENCODE_PLAN_METRICS.reset()
        serialize(msg)
        assert ENCODE_PLAN_METRICS.encodes[name] == 1
        serialize(msg, mode="interpretive")
        assert ENCODE_PLAN_METRICS.encodes[name] == 1  # the oracle counts nothing

    def test_unknown_mode_rejected(self, everything_cls):
        # "plan" named the deleted closure-table tier; it is not an alias.
        for mode in ("jit", "plan"):
            with pytest.raises(ValueError, match="unknown encode mode"):
                serialize(everything_cls(), mode=mode)
            with pytest.raises(ValueError, match="unknown encode mode"):
                serialize_into(everything_cls(), bytearray(8), mode=mode)
            with pytest.raises(ValueError, match="unknown encode mode"):
                prepare_emit(everything_cls(), mode=mode)

    def test_protocol_config_knob(self):
        # The knob is gone: the tier is chosen by the mode argument of the
        # component that codes, not by a ProtocolConfig field nothing read.
        from repro.core import ProtocolConfig

        for knob in ("encode_mode", "decode_mode"):
            assert not hasattr(ProtocolConfig(), knob)
            with pytest.raises(TypeError):
                ProtocolConfig(**{knob: "interpretive"})


# ---------------------------------------------------------------------------
# Differential parity (generated vs interpretive)
# ---------------------------------------------------------------------------


class TestParity:
    def test_kitchen_sink(self, everything_cls):
        wire = both(build_everything(everything_cls))
        assert parse(everything_cls, wire) == build_everything(everything_cls)

    def test_empty_message(self, everything_cls):
        assert both(everything_cls()) == b""

    def test_empty_submessage_presence(self, everything_cls, leaf_cls):
        m = everything_cls()
        m.f_leaf.CopyFrom(leaf_cls())
        # tag(17, LEN)=0x8a 0x01, length 0
        assert both(m) == b"\x8a\x01\x00"

    def test_defaults_skipped(self, everything_cls):
        m = everything_cls(f_int32=0, f_bool=False, f_string="", f_bytes=b"",
                           f_double=0.0)
        assert both(m) == b""

    def test_negative_zero_is_default(self, everything_cls):
        # -0.0 == 0.0, so proto3 treats it as the default: skipped.
        assert both(everything_cls(f_double=-0.0)) == b""

    def test_nan_is_serialized(self, everything_cls):
        wire = both(everything_cls(f_double=float("nan")))
        assert wire != b""

    def test_recursive_tree(self, node_cls):
        root = node_cls(key=1)
        child = root.children.add()
        child.key = 2
        child.leaf.id = -7
        grand = child.children.add()
        grand.key = (1 << 64) - 1
        wire = both(root)
        assert parse(node_cls, wire) == root

    def test_shared_submessage_object(self, node_cls, leaf_cls):
        # The same Leaf instance referenced from two places: the size memo
        # is keyed by object identity and must serialize it both times.
        leaf = leaf_cls(id=3, label="x")
        a = node_cls(key=1, leaf=leaf)
        b = a.children.add()
        b.key = 2
        b.leaf.CopyFrom(leaf)
        b.leaf = leaf  # alias the exact same object
        both(a)

    def test_oneof(self, everything_cls):
        m = everything_cls(choice_s="left")
        m.choice_u = 9  # last one wins, clears choice_s
        wire = both(m)
        assert parse(everything_cls, wire).WhichOneof("choice") == "choice_u"

    def test_unknown_fields_preserved(self, everything_cls):
        # field 99, varint 5 — unknown to the schema, preserved verbatim.
        unknown = b"\xd8\x06\x05"
        m = parse(everything_cls, both(build_everything(everything_cls)) + unknown)
        assert m.UnknownFields() == unknown
        assert both(m).endswith(unknown)

    @pytest.mark.parametrize("n", [1, _BULK_MIN - 1, _BULK_MIN, 100])
    def test_packed_run_lengths(self, everything_cls, n):
        # Straddle the scalar/NumPy crossover: both paths byte-identical.
        vals = [(7 * i) % 300000 for i in range(n)]
        m = everything_cls(r_uint32=vals)
        wire = both(m)
        assert list(parse(everything_cls, wire).r_uint32) == vals

    def test_packed_varint_extremes(self, everything_cls):
        m = everything_cls(
            r_uint32=[0, 1, 127, 128, 16383, 16384, (1 << 32) - 1] * 5,
            r_sint64=[0, -1, 1, -(1 << 63), (1 << 63) - 1, -12345] * 5,
        )
        wire = both(m)
        back = parse(everything_cls, wire)
        assert list(back.r_uint32) == list(m.r_uint32)
        assert list(back.r_sint64) == list(m.r_sint64)

    def test_packed_doubles(self, everything_cls):
        m = everything_cls(r_double=[0.0, -2.5, 1e300, -0.0, 5e-324] * 8)
        wire = both(m)
        assert list(parse(everything_cls, wire).r_double) == list(m.r_double)

    def test_all_numeric_packed_types(self):
        schema = compile_schema(
            """
            syntax = "proto3";
            package pk;
            message M {
              repeated int32 a = 1;
              repeated int64 b = 2;
              repeated sint32 c = 3;
              repeated bool d = 4;
              repeated fixed32 e = 5;
              repeated fixed64 f = 6;
              repeated sfixed32 g = 7;
              repeated sfixed64 h = 8;
              repeated float i = 9;
            }
            """
        )
        M = schema["pk.M"]
        m = M(
            a=[-(1 << 31), (1 << 31) - 1, 0, -1] * 10,
            b=[-(1 << 63), (1 << 63) - 1, 0, -1] * 10,
            c=[-(1 << 31), (1 << 31) - 1, 0, -1, 1] * 10,
            d=[True, False, True] * 15,
            e=[0, (1 << 32) - 1, 7] * 10,
            f=[0, (1 << 64) - 1, 7] * 10,
            g=[-(1 << 31), (1 << 31) - 1, -7] * 10,
            h=[-(1 << 63), (1 << 63) - 1, -7] * 10,
            i=[0.5, -1.25, 3.0] * 10,
        )
        wire = both(m)
        assert parse(M, wire) == m

    def test_packed_float_overflow_parity(self):
        # struct.pack('<f') raises for finite doubles beyond float32 range;
        # the NumPy bulk path must raise the same error, not emit inf.
        schema = compile_schema(
            'syntax = "proto3"; package ov; message F { repeated float v = 1; }'
        )
        F = schema["ov.F"]
        m = F(v=[0.5] * (_BULK_MIN + 5) + [1e300])
        for mode in MODES:
            with pytest.raises(OverflowError):
                serialize(m, mode=mode)

    def test_force_unpacked_parity(self):
        schema = compile_schema(
            """
            syntax = "proto3";
            package up;
            message U {
              repeated uint32 v = 1 [packed = false];
              repeated sfixed64 w = 2 [packed = false];
            }
            """
        )
        U = schema["up.U"]
        m = U(v=[1, 300, 70000] * 12, w=[-5, 1 << 40] * 12)
        wire = both(m)
        # Unpacked encoding: one tag per element, natural wire type.
        assert wire.startswith(b"\x08\x01\x08\xac\x02")
        assert parse(U, wire) == m

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_differential_fuzz(self, data, everything_cls):
        msg = data.draw(everything_strategy(everything_cls))
        wire = both(msg)
        for decode_mode in MODES:
            assert parse(everything_cls, wire, mode=decode_mode) == msg


# ---------------------------------------------------------------------------
# Direct-buffer emission
# ---------------------------------------------------------------------------


_FIXABLE = compile_schema(
    'syntax = "proto3"; package be; '
    "message M { int32 a = 1; string s = 2; repeated int32 r = 3; }"
)["be.M"]


def _fixable():
    """A message every measured class can carry (fixed-layout eligible)."""
    return _FIXABLE(a=7, s="fixed wire", r=[1, -2, 3])


def _measured() -> dict:
    """The three measured-message classes over one message: ``SizedMessage``,
    ``_PreparedBytes`` and ``SizedFixed``."""
    msg = _fixable()
    layout = get_fixed_layout(type(msg).DESCRIPTOR, msg._FACTORY)
    return {
        "generated": prepare_emit(msg, mode="generated"),
        "interpretive": prepare_emit(msg, mode="interpretive"),
        "fixed": layout.measure(msg),
    }


class TestSerializeInto:
    @pytest.mark.parametrize("mode", MODES)
    def test_offset_and_end(self, everything_cls, mode):
        msg = build_everything(everything_cls)
        wire = serialize(msg, mode=mode)
        buf = bytearray(len(wire) + 16)
        end = serialize_into(msg, buf, 5, mode=mode)
        assert end == 5 + len(wire)
        assert bytes(buf[5:end]) == wire
        assert bytes(buf[:5]) == b"\x00" * 5  # nothing written before offset

    @pytest.mark.parametrize("mode", MODES)
    def test_memoryview_destination(self, everything_cls, mode):
        msg = build_everything(everything_cls)
        wire = serialize(msg, mode=mode)
        backing = bytearray(len(wire))
        end = serialize_into(msg, memoryview(backing), 0, mode=mode)
        assert end == len(wire) and bytes(backing) == wire

    @pytest.mark.parametrize("mode", MODES)
    def test_buffer_too_small(self, everything_cls, mode):
        msg = build_everything(everything_cls)
        with pytest.raises(EncodeError):
            serialize_into(msg, bytearray(4), 0, mode=mode)

    def test_round_trip_through_decode_plans(self, everything_cls):
        msg = build_everything(everything_cls)
        buf = bytearray(2048)
        end = serialize_into(msg, buf, 32)
        for decode_mode in MODES:
            assert parse(everything_cls, bytes(buf[32:end]), mode=decode_mode) == msg

    @pytest.mark.parametrize("mode", MODES)
    def test_prepare_emit(self, everything_cls, mode):
        msg = build_everything(everything_cls)
        wire = serialize(msg, mode=mode)
        sized = prepare_emit(msg, mode=mode)
        assert sized.size == len(wire)
        assert sized.to_bytes() == wire
        out = bytearray(sized.size + 3)
        assert sized.emit_into(out, 3) == 3 + sized.size
        assert bytes(out[3:]) == wire
        with pytest.raises(EncodeError):
            sized.emit_into(bytearray(sized.size - 1))

    def test_short_buffer_is_rejected_not_grown(self):
        """A slice store past the end *grows* a ``bytearray`` and
        ``pack_into`` raises ``struct.error``: the fixed-wire emit must
        answer like its tag-wire twin, before its first store."""
        sized = _measured()["fixed"]
        for short in (bytearray(sized.size - 1), bytearray(4)):
            before = bytes(short)
            with pytest.raises(EncodeError):
                sized.emit_into(short, 0)
            assert bytes(short) == before

    @pytest.mark.parametrize("how", ["generated", "interpretive", "fixed"])
    def test_negative_offset_is_rejected_not_wrapped(self, how):
        """``offset + size <= len(buf)`` holds for a negative offset, and
        a negative index wraps to the tail of the buffer."""
        sized = _measured()[how]
        buf = bytearray(b"\xee" * (sized.size + 8))
        with pytest.raises(EncodeError):
            sized.emit_into(buf, -3)
        if how != "fixed":
            with pytest.raises(EncodeError):
                serialize_into(_fixable(), buf, -3, mode=how)
        assert buf == b"\xee" * (sized.size + 8)

    def test_emit_writer_into_address_space(self, everything_cls):
        from repro.memory import AddressSpace, MemoryRegion
        from repro.proto import emit_writer

        msg = build_everything(everything_cls)
        wire = serialize(msg)
        space = AddressSpace()
        space.map(MemoryRegion(0x1000, 4096, "sbuf"))
        size, writer = emit_writer(msg)
        assert size == len(wire)
        assert writer(space, 0x1100) == size
        assert bytes(space.read(0x1100, size)) == wire


# ---------------------------------------------------------------------------
# Generated-encoder cache & metrics
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_cache_miss_then_hit(self):
        schema = compile_schema(
            'syntax = "proto3"; package c1; message A { uint32 x = 1; }'
        )
        A = schema["c1.A"]
        ENCODE_PLAN_METRICS.reset()
        e1 = get_gen_encoder(A.DESCRIPTOR, schema.factory)
        assert ENCODE_PLAN_METRICS.gen_compiles == 1
        assert ENCODE_PLAN_METRICS.gen_cache_hits == 0
        e2 = get_gen_encoder(A.DESCRIPTOR, schema.factory)
        assert e1 is e2
        assert ENCODE_PLAN_METRICS.gen_compiles == 1
        assert ENCODE_PLAN_METRICS.gen_cache_hits == 1

    def test_children_compiled_once(self):
        schema = compile_schema(
            """
            syntax = "proto3";
            package c2;
            message Leaf { int32 id = 1; }
            message Root { Leaf a = 1; Leaf b = 2; repeated Leaf c = 3; }
            """
        )
        Root = schema["c2.Root"]
        ENCODE_PLAN_METRICS.reset()
        get_gen_encoder(Root.DESCRIPTOR, schema.factory)
        # Root + Leaf, with Leaf compiled once despite three references.
        assert ENCODE_PLAN_METRICS.gen_compiles == 2

    def test_recursive_type_compiles(self):
        schema = compile_schema(
            'syntax = "proto3"; package c3; message N { N next = 1; uint32 v = 2; }'
        )
        N = schema["c3.N"]
        encoder = get_gen_encoder(N.DESCRIPTOR, schema.factory)
        m = N(v=1)
        m.next.v = 2
        m.next.next.v = 3
        assert encoder.serialize(m) == serialize(m, mode="interpretive")

    def test_encode_counters(self, everything_cls):
        msg = build_everything(everything_cls)
        wire = serialize(msg, mode="interpretive")
        ENCODE_PLAN_METRICS.reset()
        serialize(msg, mode="generated")
        name = everything_cls.DESCRIPTOR.full_name
        assert ENCODE_PLAN_METRICS.encodes[name] == 1
        assert ENCODE_PLAN_METRICS.bytes_emitted == len(wire)
        assert ENCODE_PLAN_METRICS.copies_avoided == 0  # fresh bytes, no copy avoided
        buf = bytearray(len(wire))
        serialize_into(msg, buf, mode="generated")
        assert ENCODE_PLAN_METRICS.copies_avoided == 1
        assert ENCODE_PLAN_METRICS.bytes_emitted == 2 * len(wire)

    def test_metrics_export_to_registry(self, everything_cls):
        registry = MetricsRegistry()
        ENCODE_PLAN_METRICS.reset()
        ENCODE_PLAN_METRICS.bind_registry(registry)
        serialize(build_everything(everything_cls), mode="generated")
        ENCODE_PLAN_METRICS.export()
        exposed = registry.expose()
        assert "encode_plan_gen_cache_hits" in exposed
        assert "encode_plan_bytes_emitted" in exposed
        assert "encode_plan_copies_avoided" in exposed
        assert "encode_plan_encodes" in exposed
        ENCODE_PLAN_METRICS._gauges = None  # unbind for other tests
