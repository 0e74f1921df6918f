"""Unit and property tests for the protobuf wire-format primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.proto.wire_format import (
    MAX_VARINT_LEN,
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_packed_varints,
    decode_zigzag,
    encode_packed_varints,
    encode_packed_varints_bulk,
    encode_varint,
    encode_zigzag,
    make_tag,
    read_tag,
    read_varint,
    split_tag,
    varint_size,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestVarint:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),  # canonical protobuf docs example
            (16383, b"\xff\x7f"),
            (16384, b"\x80\x80\x01"),
            ((1 << 64) - 1, b"\xff" * 9 + b"\x01"),
        ],
    )
    def test_known_encodings(self, value, expected):
        assert encode_varint(value) == expected

    def test_negative_encodes_as_twos_complement(self):
        # protobuf encodes -1 (int64) as 10 bytes of 0xFF... 0x01.
        assert encode_varint(-1) == b"\xff" * 9 + b"\x01"
        v, pos = read_varint(encode_varint(-1), 0)
        assert v == (1 << 64) - 1
        assert pos == 10

    @given(U64)
    def test_roundtrip(self, value):
        data = encode_varint(value)
        out, pos = read_varint(data, 0)
        assert out == value
        assert pos == len(data)
        assert len(data) == varint_size(value)
        assert len(data) <= MAX_VARINT_LEN

    @given(U64, st.binary(max_size=4))
    def test_roundtrip_with_trailing_garbage(self, value, suffix):
        data = encode_varint(value) + suffix
        out, pos = read_varint(data, 0)
        assert out == value
        assert pos == varint_size(value)

    def test_truncated_raises(self):
        with pytest.raises(TruncatedMessageError):
            read_varint(b"\x80", 0)
        with pytest.raises(TruncatedMessageError):
            read_varint(b"", 0)

    def test_overlong_raises(self):
        with pytest.raises(WireFormatError):
            read_varint(b"\xff" * 10 + b"\x01", 0)

    def test_eleven_byte_varint_rejected(self):
        with pytest.raises(WireFormatError):
            read_varint(b"\x80" * 10 + b"\x00", 0)

    def test_read_at_offset(self):
        buf = b"\xff" + encode_varint(300)
        v, pos = read_varint(buf, 1)
        assert v == 300
        assert pos == 3


class TestZigZag:
    @pytest.mark.parametrize(
        "value,encoded",
        [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2147483647, 4294967294)],
    )
    def test_known_values(self, value, encoded):
        assert encode_zigzag(value, 64) == encoded

    def test_min_int32(self):
        assert encode_zigzag(-2147483648, 32) == 4294967295

    @given(I64)
    def test_roundtrip_64(self, value):
        assert decode_zigzag(encode_zigzag(value, 64)) == value

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_roundtrip_32(self, value):
        assert decode_zigzag(encode_zigzag(value, 32)) == value

    @given(I64)
    def test_small_magnitude_small_encoding(self, value):
        # The point of zigzag: |v| <= 2^k => encoding < 2^(k+1).
        enc = encode_zigzag(value, 64)
        assert enc <= 2 * abs(value) + 1


class TestTags:
    @given(st.integers(min_value=1, max_value=(1 << 29) - 1), st.sampled_from([0, 1, 2, 5]))
    def test_roundtrip(self, field_number, wire_type):
        tag = make_tag(field_number, wire_type)
        assert split_tag(tag) == (field_number, wire_type)

    def test_read_tag(self):
        data = encode_varint(make_tag(3, WireType.LENGTH_DELIMITED))
        fn, wt, pos = read_tag(data, 0)
        assert (fn, wt) == (3, 2)
        assert pos == len(data)

    def test_field_number_zero_rejected(self):
        with pytest.raises(WireFormatError):
            read_tag(b"\x02", 0)  # tag 2 -> field 0, wiretype 2

    def test_group_wire_types_rejected(self):
        with pytest.raises(WireFormatError):
            read_tag(encode_varint(make_tag(1, 3)), 0)
        with pytest.raises(WireFormatError):
            read_tag(encode_varint(make_tag(1, 4)), 0)

    def test_out_of_range_field_number(self):
        with pytest.raises(WireFormatError):
            make_tag(1 << 29, 0)
        with pytest.raises(WireFormatError):
            make_tag(0, 0)


class TestPackedVarints:
    def test_empty(self):
        assert decode_packed_varints(b"").size == 0

    @given(st.lists(U64, max_size=200))
    def test_roundtrip_matches_scalar_decode(self, values):
        data = encode_packed_varints(values)
        vec = decode_packed_varints(data)
        assert list(vec) == values
        # Cross-check against the scalar reader.
        pos = 0
        scalar = []
        while pos < len(data):
            v, pos = read_varint(data, pos)
            scalar.append(v)
        assert scalar == values

    def test_count_hint_mismatch(self):
        data = encode_packed_varints([1, 2, 3])
        with pytest.raises(WireFormatError):
            decode_packed_varints(data, count_hint=2)

    def test_truncated_run(self):
        with pytest.raises(TruncatedMessageError):
            decode_packed_varints(b"\x80")

    def test_dtype(self):
        out = decode_packed_varints(encode_packed_varints([5]))
        assert out.dtype == np.uint64

    # -- the one kernel against the scalar reader, good input and bad ---------

    @staticmethod
    def _scalar(data: bytes):
        """The per-element loop the kernel replaces: values, or the error."""
        pos, out = 0, []
        try:
            while pos < len(data):
                value, pos = read_varint(data, pos)
                out.append(value)
        except WireFormatError as exc:
            return exc
        return out

    @given(st.lists(st.one_of(U64, st.integers(0, 127),
                              st.sampled_from([(1 << (7 * k)) - 1 for k in range(1, 10)]
                                              + [1 << (7 * k) for k in range(1, 10)]
                                              + [(1 << 64) - 1, 1 << 63])),
                    max_size=300))
    def test_boundary_values_match_scalar(self, values):
        data = encode_packed_varints(values)
        assert decode_packed_varints(data).tolist() == self._scalar(data) == values

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_match_scalar(self, data):
        # Not every byte string is a run of canonical varints: over-long
        # encodings decode, truncated / 11-byte / 65-bit ones are rejected
        # — by both readers alike, with the wire-format error and nothing
        # else.
        expected = self._scalar(data)
        if isinstance(expected, WireFormatError):
            with pytest.raises(WireFormatError):
                decode_packed_varints(data)
        else:
            assert decode_packed_varints(data).tolist() == expected

    @pytest.mark.parametrize("prefix", [b"", b"\x05", b"\xac\x02", b"\x05" * 40])
    def test_malformed_runs_rejected(self, prefix):
        ten = b"\xff" * 9
        # truncated: the run ends inside a varint
        with pytest.raises(TruncatedMessageError):
            decode_packed_varints(prefix + b"\x96")
        # eleven bytes
        with pytest.raises(WireFormatError, match="longer than 10"):
            decode_packed_varints(prefix + b"\x80" * 10 + b"\x01" + prefix)
        # ten bytes whose last carries more than bit 63
        with pytest.raises(WireFormatError, match="exceeds 64 bits"):
            decode_packed_varints(prefix + ten + b"\x02" + prefix)
        # ... while exactly 64 bits is fine
        assert decode_packed_varints(prefix + ten + b"\x01")[-1] == (1 << 64) - 1
        for bad in (b"\x96", b"\x80" * 10 + b"\x01", ten + b"\x02"):
            assert isinstance(self._scalar(prefix + bad), WireFormatError)


_LENGTH_CLASS_EDGES = (
    [0, 1]
    + [(1 << (7 * k)) - 1 for k in range(1, 10)]
    + [1 << (7 * k) for k in range(1, 10)]
    + [1 << 63, (1 << 64) - 1]
)


class TestPackedVarintEncodeKernel:
    """``encode_packed_varints_bulk`` against repeated ``append_varint``
    (``encode_packed_varints`` is that loop)."""

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 4097])
    def test_every_length_class_at_every_size(self, n):
        values = [_LENGTH_CLASS_EDGES[i % len(_LENGTH_CLASS_EDGES)] for i in range(n)]
        out = encode_packed_varints_bulk(np.array(values, dtype=np.uint64))
        assert out == encode_packed_varints(values)

    @pytest.mark.parametrize("edge", _LENGTH_CLASS_EDGES)
    def test_run_of_one_length_class(self, edge):
        for values in ([edge], [edge] * 3, [0, edge], [edge, 0]):
            out = encode_packed_varints_bulk(np.array(values, dtype=np.uint64))
            assert out == encode_packed_varints(values)

    @given(st.lists(st.one_of(U64, st.sampled_from(_LENGTH_CLASS_EDGES)), max_size=300))
    def test_matches_scalar_loop(self, values):
        out = encode_packed_varints_bulk(np.array(values, dtype=np.uint64))
        assert out == encode_packed_varints(values)
        assert decode_packed_varints(out).tolist() == values

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=64))
    def test_all_single_byte_run_is_the_values(self, values):
        assert encode_packed_varints_bulk(np.array(values, dtype=np.uint64)) == bytes(values)

    def test_non_contiguous_and_non_uint64_inputs(self):
        base = np.array([0, 300, 1 << 40, 127, 128, (1 << 64) - 1], dtype=np.uint64)
        assert encode_packed_varints_bulk(base[::2]) == encode_packed_varints(
            base[::2].tolist()
        )
        small = np.array([1, 200, 65535], dtype=np.uint16)
        assert encode_packed_varints_bulk(small) == encode_packed_varints(small.tolist())
        # Negative int64 is its 64-bit two's complement: ten bytes each.
        neg = np.array([-1, -(1 << 63), 5], dtype=np.int64)
        assert encode_packed_varints_bulk(neg) == encode_packed_varints(
            [v & ((1 << 64) - 1) for v in neg.tolist()]
        )
