"""UTF-8 validation for ``string`` fields.

The paper singles out UTF-8 validation as one of the two expensive
operations in string deserialization (§V).  One check serves every
caller: a C-level ASCII test, then CPython's strict ``utf-8`` decoder —
the same decoder the host's generated codecs call — which rejects
surrogates, overlongs, code points past U+10FFFF and truncation, as
protobuf's validity contract for ``string`` fields does.
"""

from __future__ import annotations

__all__ = ["Utf8Error", "validate_utf8"]


class Utf8Error(ValueError):
    """Raised when a byte string is not valid UTF-8."""


def validate_utf8(data) -> None:
    """Raise :class:`Utf8Error` unless ``data`` is valid UTF-8."""
    data = bytes(data)
    if not data.isascii():
        try:
            str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise Utf8Error(f"invalid UTF-8 at byte {exc.start}") from None
