"""Tests for the dynamic message classes (generated-code analog)."""

from __future__ import annotations

import enum
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto import FieldValueError, compile_schema
from repro.proto import message as message_mod
from repro.proto.descriptor import FieldType
from tests.conftest import build_everything


class TestFieldAccess:
    def test_defaults(self, everything_cls):
        m = everything_cls()
        assert m.f_int32 == 0
        assert m.f_string == ""
        assert m.f_bytes == b""
        assert m.f_bool is False
        assert m.f_double == 0.0
        assert list(m.r_uint32) == []

    def test_set_get(self, everything_cls):
        m = everything_cls()
        m.f_int32 = -5
        m.f_string = "x"
        assert m.f_int32 == -5
        assert m.f_string == "x"

    def test_kwargs_constructor(self, everything_cls):
        m = everything_cls(f_int32=3, r_uint32=[1, 2])
        assert m.f_int32 == 3
        assert list(m.r_uint32) == [1, 2]

    def test_unknown_field_rejected(self, everything_cls):
        with pytest.raises(AttributeError):
            everything_cls().nope = 1
        with pytest.raises(FieldValueError):
            everything_cls(nope=1)

    def test_submessage_autovivify(self, node_cls):
        n = node_cls()
        n.leaf.id = 3
        assert n.leaf.id == 3
        assert n.HasField("leaf")


class TestTypeChecking:
    def test_int_range_enforced(self, everything_cls):
        m = everything_cls()
        with pytest.raises(FieldValueError):
            m.f_int32 = 1 << 31
        with pytest.raises(FieldValueError):
            m.f_uint32 = -1
        with pytest.raises(FieldValueError):
            m.f_uint64 = 1 << 64
        m.f_uint64 = (1 << 64) - 1  # max ok

    def test_string_vs_bytes(self, everything_cls):
        m = everything_cls()
        with pytest.raises(FieldValueError):
            m.f_string = b"raw"
        with pytest.raises(FieldValueError):
            m.f_bytes = "text"

    def test_bool_not_int(self, everything_cls):
        m = everything_cls()
        with pytest.raises(FieldValueError):
            m.f_bool = 1
        with pytest.raises(FieldValueError):
            m.f_int32 = True

    def test_float_accepts_int(self, everything_cls):
        m = everything_cls()
        m.f_double = 3
        assert m.f_double == 3.0
        assert isinstance(m.f_double, float)

    def test_repeated_validates_elements(self, everything_cls):
        m = everything_cls()
        m.r_uint32.append(5)
        with pytest.raises(FieldValueError):
            m.r_uint32.append(-1)
        with pytest.raises(FieldValueError):
            m.r_uint32.extend([1, "x"])
        with pytest.raises(FieldValueError):
            m.r_uint32[0] = "x"

    def test_repeated_message_add(self, node_cls, leaf_cls):
        n = node_cls()
        child = n.children.add()
        child.key = 9
        assert n.children[0].key == 9
        with pytest.raises(FieldValueError):
            n.children.append(leaf_cls())  # wrong type

    def test_submessage_type_checked(self, everything_cls, node_cls):
        m = everything_cls()
        with pytest.raises(FieldValueError):
            m.f_leaf = node_cls()


class TestPresence:
    def test_hasfield_scalar_proto3(self, everything_cls):
        m = everything_cls()
        assert not m.HasField("f_int32")
        m.f_int32 = 0  # default: still "absent" in proto3 terms
        assert not m.HasField("f_int32")
        m.f_int32 = 1
        assert m.HasField("f_int32")

    def test_hasfield_repeated_rejected(self, everything_cls):
        with pytest.raises(FieldValueError):
            everything_cls().HasField("r_uint32")

    def test_clearfield(self, everything_cls):
        m = everything_cls(f_int32=5)
        m.ClearField("f_int32")
        assert m.f_int32 == 0

    def test_listfields_sorted_and_filtered(self, everything_cls):
        m = everything_cls(f_uint32=1, f_int32=0)  # int32 default => omitted
        fields = [fd.name for fd, _ in m.ListFields()]
        assert fields == ["f_uint32"]

    def test_listfields_order(self, everything_cls):
        m = everything_cls(f_bool=True, f_double=1.0)
        names = [fd.name for fd, _ in m.ListFields()]
        assert names == ["f_double", "f_bool"]  # ascending field number


class TestOneof:
    def test_oneof_exclusive(self, everything_cls):
        m = everything_cls()
        m.choice_s = "a"
        assert m.WhichOneof("choice") == "choice_s"
        m.choice_u = 3
        assert m.WhichOneof("choice") == "choice_u"
        assert m.choice_s == ""  # cleared back to default

    def test_which_oneof_none(self, everything_cls):
        assert everything_cls().WhichOneof("choice") is None

    def test_unknown_oneof(self, everything_cls):
        with pytest.raises(FieldValueError):
            everything_cls().WhichOneof("nope")


class TestEqualityAndCopy:
    def test_equality_ignores_explicit_defaults(self, everything_cls):
        a = everything_cls()
        b = everything_cls(f_int32=0)
        assert a == b

    def test_equality_full(self, everything_cls):
        a = build_everything(everything_cls)
        b = build_everything(everything_cls)
        assert a == b
        b.f_uint32 += 1
        assert a != b

    def test_copyfrom(self, everything_cls):
        a = build_everything(everything_cls)
        b = everything_cls()
        b.CopyFrom(a)
        assert a == b

    def test_cross_type_inequality(self, everything_cls, leaf_cls):
        assert everything_cls() != leaf_cls()

    def test_repr_mentions_set_fields(self, leaf_cls):
        leaf = leaf_cls(id=4, label="hi")
        r = repr(leaf)
        assert "id=4" in r and "label='hi'" in r


class TestNanEquality:
    def test_nan_fields_compare_equal(self):
        schema = compile_schema(
            'syntax = "proto3"; message F { double d = 1; repeated double rd = 2; }'
        )
        F = schema["F"]
        a = F(d=float("nan"), rd=[float("nan"), 1.0])
        b = F(d=float("nan"), rd=[float("nan"), 1.0])
        assert a == b


# ---------------------------------------------------------------------------
# Repeated scalars enter as one span (extend / += / slice assignment)
# ---------------------------------------------------------------------------

_SCALAR_KINDS = (
    "double", "float", "int32", "int64", "uint32", "uint64", "sint32", "sint64",
    "fixed32", "fixed64", "sfixed32", "sfixed64", "bool", "string", "bytes", "Tint",
)
_SPANS_SCHEMA = compile_schema(
    'syntax = "proto3"; package span;\n'
    "enum Tint { TINT_UNSPECIFIED = 0; DARK = 1; }\n"
    "message Spans {\n"
    + "".join(
        f"  repeated {kind} r_{kind.lower()} = {i};\n"
        for i, kind in enumerate(_SCALAR_KINDS, start=1)
    )
    + "}\n"
)
_SPANS = _SPANS_SCHEMA["span.Spans"]
_SPAN_FIELDS = [fd.name for fd in _SPANS.DESCRIPTOR.fields]


class _Tone(enum.IntEnum):
    DARK = 1


class _MyInt(int):
    pass


def _boundary_ints(fd):
    lo, hi = message_mod._INT_RANGES.get(fd.type, (-(1 << 63), (1 << 64) - 1))
    return st.sampled_from([lo - 1, lo, lo + 1, 0, 1, hi - 1, hi, hi + 1])


#: one value per way an element can be wrong for some kind (or right for
#: another): the per-element oracle decides, the span path must agree.
_INTRUDERS = st.sampled_from(
    [True, False, 1.5, float("nan"), "s", b"b", bytearray(b"ba"), None,
     _Tone.DARK, _MyInt(7), 10**400]
)


@st.composite
def _span_case(draw):
    name = draw(st.sampled_from(_SPAN_FIELDS))
    fd = _SPANS.DESCRIPTOR.field_by_name(name)
    home = {
        FieldType.BOOL: st.booleans(),
        FieldType.STRING: st.text(max_size=3),
        FieldType.BYTES: st.binary(max_size=3),
        FieldType.FLOAT: st.one_of(st.floats(), st.integers(-5, 5)),
        FieldType.DOUBLE: st.one_of(st.floats(), st.integers(-5, 5)),
    }.get(fd.type, _boundary_ints(fd))
    values = draw(st.lists(home, max_size=20))
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(_INTRUDERS))
    shape = draw(st.sampled_from(["list", "tuple", "array", "range"]))
    if shape == "range":
        start = draw(_boundary_ints(fd))
        return name, range(start, start + draw(st.integers(-3, 3)))
    if shape == "array" and values and all(type(v) is int for v in values):
        lo, hi = min(values), max(values)
        for code in "iIqQ":
            clo, chi = message_mod._TYPECODE_RANGES[code]
            if clo <= lo and hi <= chi:
                return name, array(code, values)
    return name, tuple(values) if shape == "tuple" else values


def _oracle(fd, span):
    """Per-element ``_coerce_scalar``: (stored values, None) or (None, exc)."""
    try:
        return [message_mod._coerce_scalar(fd, v) for v in span], None
    except (FieldValueError, OverflowError) as exc:
        return None, exc


def _same(a, b):
    return len(a) == len(b) and all(
        type(x) is type(y) and (x == y or (x != x and y != y)) for x, y in zip(a, b)
    )


class TestSpanValidation:
    @settings(max_examples=600, deadline=None)
    @given(
        case=_span_case(),
        how=st.sampled_from(["extend", "extend_iter", "iadd", "slice", "init", "setattr"]),
    )
    def test_span_path_matches_per_element_oracle(self, case, how):
        name, span = case
        fd = _SPANS.DESCRIPTOR.field_by_name(name)
        expected, error = _oracle(fd, span)
        before = [fd.default_value()] * 2
        m = _SPANS()
        list.extend(getattr(m, name), before)
        field = getattr(m, name)

        def act():
            if how == "extend":
                field.extend(span)
            elif how == "extend_iter":
                field.extend(v for v in span)
            elif how == "iadd":
                lst = field
                lst += span
            elif how == "slice":
                field[1:1] = span
            elif how == "init":
                return _SPANS(**{name: span})
            else:
                setattr(m, name, span)

        if error is not None:
            with pytest.raises(type(error)) as caught:
                act()
            assert str(caught.value) == str(error)
            assert getattr(m, name) is field and _same(field, before)
            return
        built = act()
        if how == "init":
            assert _same(getattr(built, name), expected)
        elif how == "setattr":
            assert _same(getattr(m, name), expected)
        elif how == "slice":
            assert _same(field, before[:1] + expected + before[1:])
        else:
            assert _same(field, before + expected)
        assert type(getattr(built or m, name)) is message_mod._RepeatedField

    def test_building_512_ints_visits_no_element_in_python(self, bench_schema, monkeypatch):
        calls = []
        real = message_mod._coerce_scalar
        monkeypatch.setattr(
            message_mod, "_coerce_scalar", lambda fd, v: calls.append(v) or real(fd, v)
        )
        IntArray = bench_schema["bench.IntArray"]
        m = IntArray(values=list(range(512)))
        m.values.extend(array("I", range(512)))
        m.values.extend(np.arange(512, dtype=np.uint32))
        assert calls == [] and len(m.values) == 3 * 512
        m.values.append(5)  # the counter does see the per-element path
        assert calls == [5]

    def test_iadd_validates(self, bench_schema):
        m = bench_schema["bench.IntArray"](values=[1, 2])
        lst = m.values
        with pytest.raises(FieldValueError, match="expected int, got str"):
            lst += ["x", -5, 1 << 40, True]
        assert lst == [1, 2] and m.values is lst
        lst += (3, 4)
        assert m.values == [1, 2, 3, 4]
        m.SerializeToString()

    @pytest.mark.parametrize("bad", [[1, 2, "bad", 4], [1, 2, 1 << 32, 4], [1, True]])
    def test_rejected_span_leaves_field_untouched(self, bench_schema, bad):
        m = bench_schema["bench.IntArray"](values=[9, 8, 7])
        with pytest.raises(FieldValueError):
            m.values.extend(bad)
        with pytest.raises(FieldValueError):
            m.values[1:2] = bad
        with pytest.raises(FieldValueError):
            m.values += bad
        with pytest.raises(FieldValueError):
            m.values = bad
        assert m.values == [9, 8, 7]

    def test_typed_spans_accepted_and_range_checked(self, bench_schema):
        IntArray = bench_schema["bench.IntArray"]
        m = IntArray(values=np.array([1, 2, (1 << 32) - 1], dtype=np.uint64))
        m.values.extend(array("q", [3, 4]))
        m.values.extend(np.arange(6)[::2])  # non-contiguous int64 view
        assert m.values == [1, 2, (1 << 32) - 1, 3, 4, 0, 2, 4]
        assert all(type(v) is int for v in m.values)
        assert IntArray().ParseFromString(m.SerializeToString()) == m
        for bad in (
            np.array([1, 1 << 32], dtype=np.uint64),
            np.array([-1], dtype=np.int8),
            array("q", [0, -1]),
            np.array([1.0, 2.0]),
            array("d", [1.0]),
            np.array([True, False]),
            np.array([[1, 2], [3, 4]], dtype=np.uint32),
        ):
            with pytest.raises(FieldValueError):
                m.values.extend(bad)
        assert len(m.values) == 8

    def test_float_span_is_coerced_once(self):
        m = _SPANS(r_double=[1, 2.5, -0.0], r_float=(3,))
        assert [type(v) for v in m.r_double] == [float] * 3
        assert m.r_double == [1.0, 2.5, -0.0] and m.r_float == [3.0]
        with pytest.raises(FieldValueError, match="expected float, got bool"):
            m.r_double.extend([1.0, True])
        with pytest.raises(OverflowError):
            m.r_double.extend([10**400])
        assert len(m.r_double) == 3
