"""Differential fuzzing across the codec tiers and both wire modes.

The generated codecs (repro.proto.gen_codec) and the branchless
WIRE_FIXED layout (repro.proto.fixed_wire) are only safe to select per
connection because they are *observationally identical* to the reference
interpreter: same bytes out, same fields in, same errors.  This suite is
the evidence — random messages are pushed through every encoder tier and
compared byte-for-byte, through every decoder tier and compared
field-for-field, and (for fixed-layout-eligible types) round-tripped
through WIRE_FIXED against the standard tag/varint wire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto import (
    DECODE_MODES,
    ENCODE_MODES,
    DecodeError,
    compile_schema,
    fixed_eligibility,
    get_fixed_layout,
    parse,
    serialize,
    specs_of_descriptor,
)
from tests.conftest import build_everything
from tests.proto.test_codec_roundtrip import everything_strategy

ENCODE_TIERS = ("interpretive", "generated")
DECODE_TIERS = ("interpretive", "generated")

# A fixed-layout-eligible message: singular numeric scalars, packed
# repeated numerics, and singular string/bytes — no submessages, no
# repeated strings, no oneofs.
FIXED_PROTO = """
syntax = "proto3";
package fz;

message Telemetry {
  double t = 1;
  float gain = 2;
  int32 delta = 3;
  uint64 seq = 4;
  sint64 skew = 5;
  fixed32 crc = 6;
  bool ok = 7;
  repeated int32 samples = 8;
  repeated double series = 9;
  repeated bool bits = 10;
  string origin = 11;
  bytes blob = 12;
}
"""


@pytest.fixture(scope="module")
def telemetry_cls():
    return compile_schema(FIXED_PROTO)["fz.Telemetry"]


def telemetry_strategy(cls):
    return st.fixed_dictionaries(
        {},
        optional={
            "t": st.floats(allow_nan=False),
            "gain": st.floats(width=32, allow_nan=False),
            "delta": st.integers(-(1 << 31), (1 << 31) - 1),
            "seq": st.integers(0, (1 << 64) - 1),
            "skew": st.integers(-(1 << 63), (1 << 63) - 1),
            "crc": st.integers(0, (1 << 32) - 1),
            "ok": st.booleans(),
            "samples": st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=24),
            "series": st.lists(st.floats(allow_nan=False), max_size=12),
            "bits": st.lists(st.booleans(), max_size=16),
            "origin": st.text(max_size=40),
            "blob": st.binary(max_size=40),
        },
    ).map(lambda kw: cls(**kw))


def assert_tiers_agree(cls, msg):
    """Every encoder tier emits identical bytes; every decoder tier
    recovers identical fields from those bytes."""
    wires = {mode: serialize(msg, mode=mode) for mode in ENCODE_TIERS}
    reference = wires["interpretive"]
    for mode, wire in wires.items():
        assert wire == reference, f"encode tier {mode} diverged"
    parsed = {mode: parse(cls, reference, mode=mode) for mode in DECODE_TIERS}
    for mode, got in parsed.items():
        assert got == parsed["interpretive"], f"decode tier {mode} diverged"
    return reference, parsed["interpretive"]


def test_tiers_are_the_whole_vocabulary():
    assert set(ENCODE_TIERS) == set(ENCODE_MODES)
    assert set(DECODE_TIERS) == set(DECODE_MODES)


def test_plan_mode_is_gone_not_aliased(everything_cls):
    """``"plan"`` named the deleted closure-table tier: every component
    that takes a codec mode rejects it like any other unknown string."""
    from repro.memory import AddressSpace
    from repro.offload import ArenaDeserializer, TypeUniverse

    with pytest.raises(ValueError, match="unknown decode mode"):
        parse(everything_cls, b"", mode="plan")
    with pytest.raises(ValueError, match="unknown encode mode"):
        serialize(everything_cls(), mode="plan")
    adt = TypeUniverse(AddressSpace("host")).build_adt([everything_cls.DESCRIPTOR])
    with pytest.raises(ValueError, match="unknown arena decode mode"):
        ArenaDeserializer(adt, mode="plan")


class TestThreeTierDifferential:
    """Interpretive oracle vs generated codecs (a third tier, closure-table
    plans, sat between them until it was deleted; the class keeps its test
    ids)."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_everything(self, data, everything_cls):
        msg = data.draw(everything_strategy(everything_cls))
        wire, again = assert_tiers_agree(everything_cls, msg)
        assert again == msg
        # Re-serialization through every tier is a fixed point.
        for mode in ENCODE_TIERS:
            assert serialize(again, mode=mode) == wire

    def test_kitchen_sink(self, everything_cls):
        assert_tiers_agree(everything_cls, build_everything(everything_cls))

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=8),
        labels=st.lists(st.text(max_size=12), min_size=1, max_size=8),
    )
    def test_random_trees(self, keys, labels, node_cls):
        root = node_cls()
        cur = root
        for k, lab in zip(keys, labels):
            cur.key = k
            cur.leaf.label = lab
            cur = cur.children.add()
        assert_tiers_agree(node_cls, root)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\x00",
            "a",         # 1-byte/2-byte boundary
            "߿ࠀ",          # 2-byte/3-byte boundary
            "퟿",          # around the surrogate gap
            "￿\U00010000",      # 3-byte/4-byte boundary
            "\U0010ffff",            # max code point
            "héllo wörld \N{SNOWMAN} \U0001f600",
        ],
    )
    def test_utf8_edge_cases(self, everything_cls, text):
        msg = everything_cls(f_string=text, r_string=[text, "x", text])
        wire, again = assert_tiers_agree(everything_cls, msg)
        assert again.f_string == text

    def test_invalid_utf8_rejected_by_every_tier(self, everything_cls):
        wire = b"\x72\x02\xff\xfe"  # field 14 (f_string), invalid UTF-8
        for mode in DECODE_TIERS:
            with pytest.raises(DecodeError):
                parse(everything_cls, wire, mode=mode)

    @pytest.mark.parametrize("value", [1e300, -1e300, 3.5e38, float("inf"), 3.375e38])
    def test_float32_overflow_parity(self, everything_cls, value):
        """Every encoder tier treats out-of-float32-range values the same
        way: identical bytes when the value fits (inf, 3.375e38), the
        same OverflowError when it does not (1e300, 3.5e38)."""
        msg = everything_cls(f_float=value)
        outcomes = {}
        for mode in ENCODE_TIERS:
            try:
                outcomes[mode] = ("ok", serialize(msg, mode=mode))
            except OverflowError:
                outcomes[mode] = ("overflow", None)
        assert len(set(outcomes.values())) == 1, outcomes


class TestFixedWireDifferential:
    def _layout(self, cls):
        layout = get_fixed_layout(cls.DESCRIPTOR, cls._FACTORY)
        assert layout is not None
        return layout

    def test_telemetry_is_eligible(self, telemetry_cls):
        ok, reasons = fixed_eligibility(specs_of_descriptor(telemetry_cls.DESCRIPTOR))
        assert ok, reasons

    def test_everything_is_ineligible(self, everything_cls):
        ok, reasons = fixed_eligibility(specs_of_descriptor(everything_cls.DESCRIPTOR))
        assert not ok
        assert get_fixed_layout(everything_cls.DESCRIPTOR, everything_cls._FACTORY) is None

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fixed_vs_standard_roundtrip(self, data, telemetry_cls):
        """WIRE_FIXED decode(encode(m)) must equal the standard-wire
        round trip of the same message — including proto3's drop of
        default-valued fields (0, -0.0, "", empty arrays)."""
        msg = data.draw(telemetry_strategy(telemetry_cls))
        layout = self._layout(telemetry_cls)
        sized = layout.measure(msg)
        assert sized is not None
        fixed_wire = sized.to_bytes()
        via_fixed = layout.parse(telemetry_cls, fixed_wire)
        via_standard = parse(telemetry_cls, serialize(msg))
        assert via_fixed == via_standard
        # One round trip normalizes (e.g. -0.0 is written raw, dropped on
        # decode); after that the fixed wire is a fixed point.
        assert layout.encode(via_fixed) == layout.encode(via_standard)
        renorm = layout.parse(telemetry_cls, layout.encode(via_fixed))
        assert layout.encode(renorm) == layout.encode(via_fixed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fixed_wire_deterministic(self, data, telemetry_cls):
        msg = data.draw(telemetry_strategy(telemetry_cls))
        layout = self._layout(telemetry_cls)
        assert layout.encode(msg) == layout.encode(msg)

    @pytest.mark.parametrize(
        "text",
        ["", "\x00", "퟿", "\U0010ffff", "héllo \N{SNOWMAN}"],
    )
    def test_fixed_utf8_edge_cases(self, telemetry_cls, text):
        layout = self._layout(telemetry_cls)
        msg = telemetry_cls(origin=text, seq=1)
        again = layout.parse(telemetry_cls, layout.encode(msg))
        assert again.origin == text
        assert again == parse(telemetry_cls, serialize(msg))

    def test_fixed_rejects_invalid_utf8(self, telemetry_cls):
        from repro.proto import FixedWireError

        layout = self._layout(telemetry_cls)
        wire = bytearray(layout.encode(telemetry_cls(origin="ab")))
        wire[-2:] = b"\xff\xfe"  # corrupt the string tail in place
        with pytest.raises((DecodeError, FixedWireError)):
            layout.parse(telemetry_cls, bytes(wire))

    def test_fixed_truncation_rejected(self, telemetry_cls):
        from repro.proto import FixedWireError

        layout = self._layout(telemetry_cls)
        wire = layout.encode(telemetry_cls(samples=[1, 2, 3], blob=b"xyz"))
        for cut in (0, 1, layout.fixed_size - 1, len(wire) - 1):
            with pytest.raises(FixedWireError):
                layout.parse(telemetry_cls, wire[:cut])
        with pytest.raises(FixedWireError):
            layout.parse(telemetry_cls, wire + b"\x00")

    @pytest.mark.parametrize("mutation", [
        "truncated-fixed-section", "blob-overrun", "array-overrun",
        "count-far-past-the-end", "trailing-bytes", "one-byte-short",
    ])
    def test_both_sides_reject_the_same_mutations(self, telemetry_cls, mutation):
        """The message side and the arena side apply one walk
        (``FixedLayout.spans``): a mutated payload is rejected by both —
        ``FixedWireError`` here, ``DeserializeError`` there, and there
        already by the size estimate, before an arena exists — and the
        payload it was mutated from is accepted by both."""
        import struct

        from repro.memory import AddressSpace, Arena, MemoryRegion
        from repro.offload import ArenaDeserializer, DeserializeError, TypeUniverse
        from repro.proto import FixedWireError

        layout = self._layout(telemetry_cls)
        good = layout.encode(telemetry_cls(seq=9, samples=[1, 2, 3], origin="ab", blob=b"xyz"))
        slot_at = {
            s.spec.name: struct.calcsize(layout._struct.format[: 1 + i])
            for i, s in enumerate(layout.slots)
        }

        def with_count(name: str, count: int) -> bytes:
            return good[: slot_at[name]] + struct.pack("<I", count) + good[slot_at[name] + 4 :]

        bad = {
            "truncated-fixed-section": good[: layout.fixed_size - 1],
            "blob-overrun": with_count("blob", 4),
            "array-overrun": with_count("samples", 4),
            "count-far-past-the-end": with_count("series", 200_000),
            "trailing-bytes": good + b"\x00",
            "one-byte-short": good[:-1],
        }[mutation]

        space = AddressSpace("dpu")
        space.map(MemoryRegion(0x5000_0000, 1 << 16, "arena"))
        deser = ArenaDeserializer(TypeUniverse(space).build_adt([telemetry_cls.DESCRIPTOR]))
        arena = lambda: Arena(space, 0x5000_0000, 1 << 16)  # noqa: E731

        assert layout.parse(telemetry_cls, good).seq == 9
        assert deser.estimate_size_fixed(0, good) <= 1 << 16
        deser.deserialize_fixed(0, good, arena())
        with pytest.raises(FixedWireError):
            layout.parse(telemetry_cls, bad)
        with pytest.raises(DeserializeError):
            deser.estimate_size_fixed(0, bad)
        with pytest.raises(DeserializeError):
            deser.deserialize_fixed(0, bad, arena())

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_emit_into_is_bounded(self, data, telemetry_cls):
        """For any message and any ``(len(buf), offset)``, each measured
        class (``SizedMessage``, ``_PreparedBytes``, ``SizedFixed``)
        either writes exactly ``to_bytes()`` at ``offset`` and nothing
        else, or raises ``EncodeError`` and leaves ``buf`` as it was."""
        from repro.proto import EncodeError, prepare_emit

        msg = data.draw(telemetry_strategy(telemetry_cls))
        sized = data.draw(st.sampled_from([
            prepare_emit(msg, mode="generated"),
            prepare_emit(msg, mode="interpretive"),
            self._layout(telemetry_cls).measure(msg),
        ]))
        wire = sized.to_bytes()
        assert sized.size == len(wire)
        length = data.draw(st.integers(0, len(wire) + 12))
        offset = data.draw(st.integers(-len(wire) - 4, length + 4))
        buf = bytearray(b"\xa5" * length)
        if 0 <= offset and offset + len(wire) <= length:
            assert sized.emit_into(buf, offset) == offset + len(wire)
            assert buf == b"\xa5" * offset + wire + b"\xa5" * (length - offset - len(wire))
        else:
            with pytest.raises(EncodeError):
                sized.emit_into(buf, offset)
            assert buf == b"\xa5" * length

    @pytest.mark.parametrize("value", [-0.0, float("nan")])
    def test_fixed_float_presence_parity(self, telemetry_cls, value):
        """-0.0 is falsy → dropped on both wires; NaN is truthy → kept
        on both wires."""
        layout = self._layout(telemetry_cls)
        msg = telemetry_cls(t=value)
        via_fixed = layout.parse(telemetry_cls, layout.encode(msg))
        via_standard = parse(telemetry_cls, serialize(msg))
        assert serialize(via_fixed) == serialize(via_standard)
