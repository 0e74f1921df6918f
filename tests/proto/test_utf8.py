"""Tests for the UTF-8 validator, against CPython's strict decoder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto.utf8 import Utf8Error, validate_utf8

VALIDATORS = [validate_utf8]


def _cpython_accepts(data: bytes) -> bool:
    try:
        data.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


@pytest.mark.parametrize("validate", VALIDATORS)
class TestValid:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "ascii only",
            "héllo",
            "日本語テキスト",
            "emoji \U0001f600 mix",
            "߿ࠀ￿\U00010000\U0010ffff",  # boundary points
        ],
    )
    def test_valid_strings(self, validate, text):
        validate(text.encode("utf-8"))  # must not raise

    def test_long_ascii(self, validate):
        validate(b"x" * 10000)


@pytest.mark.parametrize("validate", VALIDATORS)
class TestInvalid:
    @pytest.mark.parametrize(
        "data",
        [
            b"\x80",  # lone continuation
            b"\xc2",  # truncated 2-byte
            b"\xe0\xa0",  # truncated 3-byte
            b"\xf0\x90\x80",  # truncated 4-byte
            b"\xc0\xaf",  # overlong '/'
            b"\xc1\xbf",  # overlong
            b"\xe0\x80\x80",  # overlong 3-byte
            b"\xf0\x80\x80\x80",  # overlong 4-byte
            b"\xed\xa0\x80",  # surrogate U+D800
            b"\xed\xbf\xbf",  # surrogate U+DFFF
            b"\xf4\x90\x80\x80",  # > U+10FFFF
            b"\xf5\x80\x80\x80",  # invalid lead F5
            b"\xff",
            b"\xfe",
            b"ok\x80end",  # embedded error
            b"ab\xc2",  # truncated at end
        ],
    )
    def test_invalid_sequences(self, validate, data):
        assert not _cpython_accepts(data)  # sanity: CPython agrees
        with pytest.raises(Utf8Error):
            validate(data)


class TestAgreement:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_validators_agree_with_cpython(self, data):
        expected = _cpython_accepts(data)
        for validate in VALIDATORS:
            if expected:
                validate(data)
            else:
                with pytest.raises(Utf8Error):
                    validate(data)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=64))
    def test_all_real_text_accepted(self, text):
        data = text.encode("utf-8")
        for validate in VALIDATORS:
            validate(data)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=16), st.binary(min_size=1, max_size=4), st.text(max_size=16))
    def test_corruption_in_middle_detected_identically(self, pre, bad, post):
        data = pre.encode() + bad + post.encode()
        expected = _cpython_accepts(data)
        results = []
        for validate in VALIDATORS:
            try:
                validate(data)
                results.append(True)
            except Utf8Error:
                results.append(False)
        assert results == [expected] * len(VALIDATORS)
