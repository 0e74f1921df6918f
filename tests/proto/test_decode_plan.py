"""The generated decoders (``repro.proto.gen_codec``): differential tests
against the interpretive oracle, wire-format edge cases, codec-cache
behavior, and metrics export.

The contract under test: for every input,
``parse(cls, wire, mode="generated")`` and
``parse(cls, wire, mode="interpretive")`` either produce equal messages
(field-for-field, including preserved ``_unknown`` bytes and the
reserialization) or both raise a wire-format error.

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
    DECODE_MODES,
    ENCODE_PLAN_METRICS,
    PLAN_METRICS,
    DecodeError,
    WireFormatError,
    compile_schema,
    get_gen_decoder,
    parse,
    serialize,
)
from repro.proto.descriptor import FieldType
from repro.proto.deserializer import skip_field
from repro.proto.message import _INT_RANGES
from repro.proto.wire_format import (
    TruncatedMessageError,
    WireType,
    encode_varint,
    make_tag,
)
from tests.conftest import KITCHEN_SINK_PROTO, build_everything
from tests.proto.test_codec_roundtrip import everything_strategy

MODES = ("generated", "interpretive")

#: The kind matrix (shared with ``tests/offload/test_arena_plan.py``): one
#: singular and one repeated field of each of the eight varint-carried
#: kinds, field numbers ``1 + i`` and ``11 + i``.
VARINT_KINDS = ("int32", "int64", "uint32", "uint64", "sint32", "sint64", "bool", "enum")
KIND_MATRIX_PROTO = (
    'syntax = "proto3"; package km; enum E { ZERO = 0; } message KindMatrix {\n'
    + "".join(
        f"  {'E' if kind == 'enum' else kind} s_{kind} = {1 + i};\n"
        f"  repeated {'E' if kind == 'enum' else kind} r_{kind} = {11 + i};\n"
        for i, kind in enumerate(VARINT_KINDS)
    )
    + "}"
)
#: raw varint values around every truncation boundary, over-wide ones included
KIND_MATRIX_RAWS = (
    0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, (1 << 32) + 3, (1 << 33) + 3,
    1 << 63, (1 << 64) - 1,
)


def kind_matrix_wires(kind: str, raw: int) -> dict[str, tuple[str, bytes, int]]:
    """``form -> (field name, wire bytes, element count)``: the one raw
    varint as a singular field, an unpacked repeated occurrence, a packed
    run of 1 and a packed run of 20."""
    i = VARINT_KINDS.index(kind)
    value = encode_varint(raw)
    packed = encode_varint(make_tag(11 + i, WireType.LENGTH_DELIMITED))
    return {
        "singular": (f"s_{kind}", encode_varint(make_tag(1 + i, WireType.VARINT)) + value, 1),
        "unpacked": (f"r_{kind}", encode_varint(make_tag(11 + i, WireType.VARINT)) + value, 1),
        "packed-1": (f"r_{kind}", packed + encode_varint(len(value)) + value, 1),
        "packed-20": (f"r_{kind}", packed + encode_varint(20 * len(value)) + 20 * value, 20),
    }


def kind_matrix_value(msg, name: str, count: int):
    """The one value ``msg`` holds in field ``name`` (``count`` times over
    when repeated), checked to lie inside the kind's range."""
    values = [getattr(msg, name)] if name.startswith("s_") else list(getattr(msg, name))
    assert len(values) == count and len(set(values)) == 1, (name, values)
    value = values[0]
    kind = name[2:]
    if kind == "bool":
        assert type(value) is bool
    else:
        lo, hi = _INT_RANGES[FieldType(kind)]
        assert type(value) is int and lo <= value <= hi, (name, value)
    return value


def parse_both(cls, wire):
    """Parse in both modes and assert full agreement; returns the
    generated-tier result."""
    by_mode = {mode: parse(cls, wire, mode=mode) for mode in MODES}
    gen, interp = by_mode["generated"], by_mode["interpretive"]
    assert gen == interp
    assert gen._unknown == interp._unknown
    assert serialize(gen) == serialize(interp)
    return gen


def raises_both(cls, wire, exc=WireFormatError):
    for mode in MODES:
        with pytest.raises(exc):
            parse(cls, wire, mode=mode)


# ---------------------------------------------------------------------------
# Mode plumbing
# ---------------------------------------------------------------------------


class TestModeSelection:
    def test_default_mode_is_generated(self, everything_cls):
        assert DECODE_MODES == MODES
        wire = serialize(build_everything(everything_cls))
        name = everything_cls.DESCRIPTOR.full_name
        PLAN_METRICS.reset()
        parse(everything_cls, wire)
        assert PLAN_METRICS.decodes[name] == 1
        parse(everything_cls, wire, mode="interpretive")
        assert PLAN_METRICS.decodes[name] == 1  # the oracle counts nothing

    def test_unknown_mode_rejected(self, everything_cls):
        # "plan" named the deleted closure-table tier; it is not an alias.
        for mode in ("jit", "plan"):
            with pytest.raises(ValueError, match="unknown decode mode"):
                parse(everything_cls, b"", mode=mode)


# ---------------------------------------------------------------------------
# Differential equality on well-formed inputs
# ---------------------------------------------------------------------------


class TestPlanMatchesInterpretive:
    def test_kitchen_sink(self, everything_cls):
        msg = build_everything(everything_cls)
        assert parse_both(everything_cls, serialize(msg)) == msg

    def test_empty(self, everything_cls):
        assert parse_both(everything_cls, b"") == everything_cls()

    def test_recursive_tree(self, node_cls):
        root = node_cls()
        cur = root
        for i in range(6):
            cur.key = i
            cur.leaf.label = f"level-{i}"
            cur = cur.children.add()
        assert parse_both(node_cls, serialize(root)) == root

    def test_oneof_last_wins(self, everything_cls):
        first = serialize(everything_cls(choice_s="gone"))
        second = serialize(everything_cls(choice_u=7))
        msg = parse_both(everything_cls, first + second)
        assert msg.choice_u == 7
        assert "choice_s" not in msg._values

    def test_singular_field_last_wins(self, everything_cls):
        wire = serialize(everything_cls(f_int32=1)) + serialize(everything_cls(f_int32=2))
        assert parse_both(everything_cls, wire).f_int32 == 2

    def test_submessage_merge(self, everything_cls):
        a = everything_cls()
        a.f_leaf.id = 3
        b = everything_cls()
        b.f_leaf.label = "merged"
        msg = parse_both(everything_cls, serialize(a) + serialize(b))
        assert msg.f_leaf.id == 3
        assert msg.f_leaf.label == "merged"

    def test_unpacked_encoding_of_packed_field(self, everything_cls):
        tag = encode_varint(make_tag(18, WireType.VARINT))
        wire = tag + b"\x07" + tag + encode_varint(300000)
        assert list(parse_both(everything_cls, wire).r_uint32) == [7, 300000]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_differential_fuzz(self, data, everything_cls):
        msg = data.draw(everything_strategy(everything_cls))
        wire = serialize(msg)
        assert parse_both(everything_cls, wire) == msg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_differential_fuzz_schema_evolution(self, data, everything_cls):
        """An old reader (schema missing most fields) must preserve the
        unknown bytes identically in both modes."""
        reduced = compile_schema(
            """
            syntax = "proto3";
            package test;
            message Everything {
              int32 f_int32 = 3;
              string f_string = 14;
              repeated uint32 r_uint32 = 18;
            }
            """
        )["test.Everything"]
        msg = data.draw(everything_strategy(everything_cls))
        wire = serialize(msg)
        old = parse_both(reduced, wire)
        # Nothing is dropped: what the reduced schema read plus what it
        # preserved re-serializes to the same logical message.
        assert parse_both(everything_cls, serialize(old)) == msg


# ---------------------------------------------------------------------------
# Wire-format edge cases (both modes must agree on accept AND reject)
# ---------------------------------------------------------------------------


class TestWireEdgeCases:
    def test_overlong_varint_accepted(self, everything_cls):
        # Non-canonical 2-byte encoding of 1 for uint32 field 5.
        wire = encode_varint(make_tag(5, WireType.VARINT)) + b"\x81\x00"
        assert parse_both(everything_cls, wire).f_uint32 == 1

    def test_overlong_tag_accepted(self, everything_cls):
        # The tag varint itself may be non-canonically encoded.
        wire = b"\xa8\x80\x00" + b"\x2a"  # tag 0x28 (field 5, varint) + 42
        assert parse_both(everything_cls, wire).f_uint32 == 42

    def test_ten_byte_varint_max_value(self, everything_cls):
        wire = encode_varint(make_tag(6, WireType.VARINT)) + b"\xff" * 9 + b"\x01"
        assert parse_both(everything_cls, wire).f_uint64 == (1 << 64) - 1

    def test_ten_byte_varint_overflow_rejected(self, everything_cls):
        wire = encode_varint(make_tag(6, WireType.VARINT)) + b"\xff" * 9 + b"\x02"
        raises_both(everything_cls, wire)

    def test_eleven_byte_varint_rejected(self, everything_cls):
        wire = encode_varint(make_tag(6, WireType.VARINT)) + b"\xff" * 10 + b"\x01"
        raises_both(everything_cls, wire)

    def test_packed_ten_byte_boundary(self, everything_cls):
        payload = b"\xff" * 9 + b"\x01"
        wire = (
            encode_varint(make_tag(18, WireType.LENGTH_DELIMITED))
            + encode_varint(len(payload))
            + payload
        )
        # uint32 truncates the 64-bit wire value in both modes.
        assert list(parse_both(everything_cls, wire).r_uint32) == [0xFFFFFFFF]

    @pytest.mark.parametrize("kind", VARINT_KINDS)
    def test_varint_kind_matrix(self, kind):
        """Whatever 64 bits arrive, in whichever form, both tiers decode
        one value, it fits the field (a 32-bit kind truncates first —
        ``sint32`` too), and both encode tiers send it back as bytes that
        decode to itself.  Nothing here may raise: a numeric field has no
        wire value the interpretive path answers with ``FieldValueError``."""
        cls = compile_schema(KIND_MATRIX_PROTO)["km.KindMatrix"]
        for raw in KIND_MATRIX_RAWS:
            seen = set()
            for form, (name, wire, count) in kind_matrix_wires(kind, raw).items():
                msg = parse_both(cls, wire)
                seen.add(kind_matrix_value(msg, name, count))
                encoded = {serialize(msg, mode=mode) for mode in MODES}
                assert len(encoded) == 1, (kind, raw, form)
                assert parse_both(cls, encoded.pop()) == msg
            assert len(seen) == 1, (kind, raw, seen)

    def test_sint32_truncates_before_zigzag(self, everything_cls):
        # 08 83 80 80 80 20 on a sint32: raw = 2**33 + 3.  The C++ parser
        # decodes ZigZagDecode32(uint32(raw)) = -2, not the 64-bit -4294967298.
        wire = encode_varint(make_tag(7, WireType.VARINT)) + bytes.fromhex("8380808020")
        assert parse_both(everything_cls, wire).f_sint32 == -2

    def test_packed_ten_byte_overflow_rejected(self, everything_cls):
        payload = b"\xff" * 9 + b"\x02"
        wire = (
            encode_varint(make_tag(18, WireType.LENGTH_DELIMITED))
            + encode_varint(len(payload))
            + payload
        )
        raises_both(everything_cls, wire)

    def test_truncated_packed_run_rejected(self, everything_cls):
        # Declared run length extends past the end of the buffer.
        wire = encode_varint(make_tag(18, WireType.LENGTH_DELIMITED)) + b"\x03\x01\x02"
        raises_both(everything_cls, wire)

    def test_packed_run_ending_mid_varint_rejected(self, everything_cls):
        # Run length cuts a varint in half.
        wire = encode_varint(make_tag(18, WireType.LENGTH_DELIMITED)) + b"\x01\x80"
        raises_both(everything_cls, wire)

    def test_packed_fixed_run_length_mismatch_rejected(self, everything_cls):
        # r_double (field 22): 9 bytes is not a multiple of 8.
        wire = (
            encode_varint(make_tag(22, WireType.LENGTH_DELIMITED))
            + encode_varint(9)
            + b"\x00" * 9
        )
        raises_both(everything_cls, wire)

    def test_tag_at_end_of_buffer_rejected(self, everything_cls):
        # A lone varint-field tag with no payload bytes.
        raises_both(everything_cls, encode_varint(make_tag(3, WireType.VARINT)))

    def test_wrong_wire_type_rejected(self, everything_cls):
        wire = encode_varint(make_tag(14, WireType.VARINT)) + b"\x01"
        raises_both(everything_cls, wire, DecodeError)

    def test_invalid_utf8_rejected(self, everything_cls):
        wire = encode_varint(make_tag(14, WireType.LENGTH_DELIMITED)) + b"\x02\xff\xfe"
        raises_both(everything_cls, wire, DecodeError)

    def test_field_number_zero_rejected(self, everything_cls):
        raises_both(everything_cls, b"\x00\x01")

    def test_group_wire_types_rejected(self, everything_cls):
        for wt in (WireType.START_GROUP, WireType.END_GROUP):
            raises_both(everything_cls, encode_varint(make_tag(99, wt)))


# ---------------------------------------------------------------------------
# Unknown fields at submessage boundaries (the skip_field regression)
# ---------------------------------------------------------------------------


def _leaf_with_unknown(payload_tail: bytes) -> bytes:
    """An Everything.f_leaf submessage whose body is id=5 followed by
    ``payload_tail`` (unknown field bytes)."""
    body = encode_varint(make_tag(1, WireType.VARINT)) + b"\x05" + payload_tail
    return (
        encode_varint(make_tag(17, WireType.LENGTH_DELIMITED))
        + encode_varint(len(body))
        + body
    )


class TestUnknownFieldBoundaries:
    def test_unknown_field_exactly_at_submessage_end(self, everything_cls):
        # Unknown field 1000, length-delimited, payload ends exactly where
        # the submessage ends; more parent fields follow.
        unknown = encode_varint(make_tag(1000, WireType.LENGTH_DELIMITED)) + b"\x03abc"
        wire = _leaf_with_unknown(unknown) + serialize(everything_cls(f_int32=9))
        msg = parse_both(everything_cls, wire)
        assert msg.f_leaf.id == 5
        assert msg.f_int32 == 9
        assert msg.f_leaf._unknown == unknown
        # Round trip preserves the unknown bytes.
        assert msg.f_leaf._unknown in serialize(msg)

    def test_unknown_field_overrunning_submessage_rejected(self, everything_cls):
        """Regression: the unknown field's declared length crosses the
        submessage end but stays inside the parent buffer.  skip_field
        must bound against the enclosing submessage, not the whole
        buffer — otherwise it silently absorbs the parent's bytes."""
        unknown = encode_varint(make_tag(1000, WireType.LENGTH_DELIMITED)) + b"\x20"
        wire = _leaf_with_unknown(unknown) + serialize(
            everything_cls(f_string="padding-padding-padding-padding")
        )
        raises_both(everything_cls, wire)

    def test_unknown_fixed_overrunning_submessage_rejected(self, everything_cls):
        unknown = encode_varint(make_tag(1000, WireType.FIXED64)) + b"\x01\x02"
        wire = _leaf_with_unknown(unknown) + serialize(
            everything_cls(f_bytes=b"x" * 16)
        )
        raises_both(everything_cls, wire)

    def test_skip_field_bounds_against_end(self):
        # Direct unit check of the satellite fix: the same buffer is fine
        # unbounded but must raise when the enclosing end is tighter.
        buf = encode_varint(5) + b"abcde"
        assert skip_field(buf, 0, WireType.LENGTH_DELIMITED) == len(buf)
        with pytest.raises(TruncatedMessageError):
            skip_field(buf, 0, WireType.LENGTH_DELIMITED, end=4)
        with pytest.raises(TruncatedMessageError):
            skip_field(b"\x01\x02\x03\x04\x05\x06\x07\x08", 0, WireType.FIXED64, end=7)
        with pytest.raises(TruncatedMessageError):
            skip_field(b"\x80\x01", 0, WireType.VARINT, end=1)


# ---------------------------------------------------------------------------
# Generated-decoder cache + metrics
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_plan_cached_per_factory(self, kitchen_schema):
        desc = kitchen_schema.pool.message("test.Everything")
        d1 = get_gen_decoder(desc, kitchen_schema.factory)
        d2 = get_gen_decoder(desc, kitchen_schema.factory)
        assert d1 is d2

    def test_recursive_type_compiles(self, kitchen_schema, node_cls):
        desc = kitchen_schema.pool.message("test.Node")
        decoder = get_gen_decoder(desc, kitchen_schema.factory)
        # children (field 3) resolves back to the same decoder object.
        assert f"tag == {make_tag(3, WireType.LENGTH_DELIMITED)}:" in decoder.source
        root = node_cls(key=1)
        root.children.add().children.add().key = 3
        assert parse(node_cls, serialize(root), mode="generated") == root

    def test_repeated_numeric_registers_both_encodings(self, kitchen_schema):
        desc = kitchen_schema.pool.message("test.Everything")
        source = get_gen_decoder(desc, kitchen_schema.factory).source
        assert f"tag == {make_tag(18, WireType.VARINT)}:" in source
        assert f"tag == {make_tag(18, WireType.LENGTH_DELIMITED)}:" in source

    def test_cache_miss_then_hits(self):
        schema = compile_schema(
            'syntax = "proto3"; package pc; message M { uint32 a = 1; }'
        )
        cls = schema["pc.M"]
        wire = serialize(cls(a=1))
        PLAN_METRICS.reset()
        parse(cls, wire, mode="generated")
        assert PLAN_METRICS.gen_compiles == 1
        assert PLAN_METRICS.gen_cache_hits == 0
        for _ in range(3):
            parse(cls, wire, mode="generated")
        assert PLAN_METRICS.gen_cache_hits == 3
        assert PLAN_METRICS.gen_compiles == 1
        assert PLAN_METRICS.decodes["pc.M"] == 4

    @pytest.mark.parametrize("side", ["decode", "encode"])
    def test_interrupted_first_compile_does_not_poison_the_factory(self, monkeypatch, side):
        """The codec goes into the cache before its source is generated;
        a Ctrl-C (or any other exception) during generation must take it
        out again, or every later use of the type dies on a codec with
        no code in it."""
        from repro.proto import gen_codec

        cls = compile_schema('syntax = "proto3"; package pi; message M { uint32 a = 1; }')["pi.M"]
        real = getattr(gen_codec, f"{side}_source")
        calls = []

        def interrupted_once(descriptor, factory):
            calls.append(descriptor.full_name)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return real(descriptor, factory)

        monkeypatch.setattr(gen_codec, f"{side}_source", interrupted_once)
        if side == "decode":
            metrics, use, expected = PLAN_METRICS, lambda: parse(cls, b"\x08\x01").a, 1
        else:
            metrics, use, expected = ENCODE_PLAN_METRICS, lambda: serialize(cls(a=1)), b"\x08\x01"
        metrics.reset()
        with pytest.raises(KeyboardInterrupt):
            use()
        assert use() == expected
        assert metrics.gen_compiles == 1

    def test_failed_compile_takes_the_codecs_that_refer_to_it_along(self, monkeypatch):
        """Mutual recursion: ``B`` is compiled inside ``A``'s compile and
        binds the in-flight ``A`` codec.  When ``A`` then fails, a cached
        ``B`` would keep calling an ``A`` that never got its code."""
        from repro.proto import gen_codec

        schema = compile_schema(
            'syntax = "proto3"; package mr; '
            "message A { B b = 1; uint32 x = 2; } message B { A a = 1; }"
        )
        cls = schema["mr.A"]
        real = gen_codec.decode_source
        failed = []

        def fail_a_after_b(descriptor, factory):
            result = real(descriptor, factory)  # compiles B inside
            if descriptor.full_name == "mr.A" and not failed:
                failed.append(True)
                raise MemoryError
            return result

        monkeypatch.setattr(gen_codec, "decode_source", fail_a_after_b)
        msg = cls(x=1)
        msg.b.a.x = 7
        with pytest.raises(MemoryError):
            parse(cls, serialize(msg))
        assert parse(cls, serialize(msg)).b.a.x == 7

    def test_metrics_export_to_registry(self):
        schema = compile_schema(
            'syntax = "proto3"; package pm; message M { uint32 a = 1; }'
        )
        cls = schema["pm.M"]
        PLAN_METRICS.reset()
        registry = MetricsRegistry()
        PLAN_METRICS.bind_registry(registry)
        try:
            parse(cls, serialize(cls(a=2)), mode="generated")
            parse(cls, serialize(cls(a=3)), mode="generated")
            PLAN_METRICS.export()
        finally:
            PLAN_METRICS._gauges = None  # unbind for other tests
        assert registry.get("decode_plan_gen_compiles").samples()[0].value == 1
        assert registry.get("decode_plan_gen_cache_hits").samples()[0].value == 1
        assert registry.get("decode_plan_gen_source_bytes").samples()[0].value > 0
        decodes = {
            s.labels: s.value for s in registry.get("decode_plan_decodes").samples()
        }
        assert decodes[(("message", "pm.M"),)] == 2
