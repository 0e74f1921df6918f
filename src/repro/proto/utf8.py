"""UTF-8 validation — scalar and vectorized paths.

The paper singles out UTF-8 validation as one of the two expensive
operations in string deserialization and notes that the host wins there
because x86 SIMD instructions validate Unicode very quickly (§V), while the
DPU's ARM cores run a scalar loop.  We model both:

* :func:`validate_utf8_scalar` — a DFA-based byte-at-a-time validator, the
  shape of the loop a non-SIMD core executes;
* :func:`validate_utf8_simd` — a NumPy block-vectorized validator standing
  in for the SSE/AVX path;
* :func:`validate_utf8` — the default, which takes the ASCII fast path and
  falls back to the vectorized validator.

Both reject the same inputs CPython's strict ``utf-8`` codec rejects
(surrogates, overlongs, > U+10FFFF, truncation), which is also protobuf's
validity contract for ``string`` fields.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Utf8Error",
    "validate_utf8",
    "validate_utf8_scalar",
    "validate_utf8_simd",
]


class Utf8Error(ValueError):
    """Raised when a byte string is not valid UTF-8."""


# DFA after Björn Höhrmann's "Flexible and Economical UTF-8 Decoder":
# byte -> character class, (state, class) -> next state.  State 0 is
# ACCEPT, state 1 is REJECT.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[0x00:0x80] = 0  # ASCII
_BYTE_CLASS[0x80:0x90] = 1  # continuation low
_BYTE_CLASS[0x90:0xA0] = 9  # continuation mid-low
_BYTE_CLASS[0xA0:0xC0] = 7  # continuation high
_BYTE_CLASS[0xC0:0xC2] = 8  # overlong 2-byte lead
_BYTE_CLASS[0xC2:0xE0] = 2  # 2-byte lead
_BYTE_CLASS[0xE0:0xE1] = 10  # 3-byte lead, constrained continuation
_BYTE_CLASS[0xE1:0xED] = 3  # 3-byte lead
_BYTE_CLASS[0xED:0xEE] = 4  # 3-byte lead excluding surrogates
_BYTE_CLASS[0xEE:0xF0] = 3
_BYTE_CLASS[0xF0:0xF1] = 11  # 4-byte lead, constrained continuation
_BYTE_CLASS[0xF1:0xF4] = 6  # 4-byte lead
_BYTE_CLASS[0xF4:0xF5] = 5  # 4-byte lead, upper bound U+10FFFF
_BYTE_CLASS[0xF5:0x100] = 8  # invalid leads

# transition[state][class] -> next state (states 0..8, scaled by 12 in the
# original formulation; we keep a 2-D table for clarity).
_TRANSITION = np.array(
    [
        # cls: 0   1   2   3   4   5   6   7   8   9  10  11
        [0, 1, 2, 3, 5, 8, 7, 1, 1, 1, 4, 6],  # state 0: accept
        [1] * 12,  # state 1: reject
        [1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1],  # state 2: one cont needed
        [1, 2, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1],  # state 3: two conts needed
        [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1],  # state 4: E0 (cont must be A0..BF)
        [1, 2, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1],  # state 5: ED (cont must be 80..9F)
        [1, 1, 1, 1, 1, 1, 1, 3, 1, 3, 1, 1],  # state 6: F0 (cont must be 90..BF)
        [1, 3, 1, 1, 1, 1, 1, 3, 1, 3, 1, 1],  # state 7: F1..F3
        [1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],  # state 8: F4 (cont must be 80..8F)
    ],
    dtype=np.uint8,
)


def validate_utf8_scalar(data) -> None:
    """Validate byte-at-a-time with the DFA; raises :class:`Utf8Error`."""
    state = 0
    byte_class = _BYTE_CLASS
    transition = _TRANSITION
    for i, b in enumerate(bytes(data)):
        state = transition[state][byte_class[b]]
        if state == 1:
            raise Utf8Error(f"invalid UTF-8 at byte {i}")
    if state != 0:
        raise Utf8Error("truncated UTF-8 sequence at end of string")


def validate_utf8_simd(data) -> None:
    """Block-vectorized validation (the x86-SIMD stand-in).

    Classifies all bytes at once with a table gather, then runs the DFA
    only over the (typically sparse) non-ASCII spans.  Pure-ASCII inputs
    validate with two vector operations and no per-byte Python work.
    """
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    if raw.size == 0:
        return
    classes = _BYTE_CLASS[raw]
    nonascii = np.flatnonzero(classes)
    if nonascii.size == 0:
        return
    # Multi-byte sequences are at most 4 bytes, so it suffices to run the
    # DFA over maximal runs of non-ASCII bytes (a lead byte and its
    # continuations are all non-ASCII).
    transition = _TRANSITION
    state = 0
    prev = -2
    for idx in nonascii:
        if idx != prev + 1 and state != 0:
            raise Utf8Error(f"truncated UTF-8 sequence before byte {idx}")
        state = transition[state][classes[idx]]
        if state == 1:
            raise Utf8Error(f"invalid UTF-8 at byte {idx}")
        prev = idx
    if state != 0:
        raise Utf8Error("truncated UTF-8 sequence at end of string")


def validate_utf8(data) -> None:
    """Default validator: a C-level ASCII check, then the vectorized
    validator for anything that is not pure ASCII."""
    data = bytes(data)
    if not data.isascii():
        validate_utf8_simd(data)
