"""xRPC wire framing.

gRPC proper rides on HTTP/2; what the offload architecture needs from it
is (a) length-prefixed protobuf messages — gRPC's 5-byte message prefix —
and (b) multiplexed unary calls with a method path and a status.  We keep
gRPC's message prefix verbatim (compressed flag + u32 big-endian length)
and replace the HTTP/2 stream machinery with an explicit frame header, a
simplification documented in DESIGN.md.

Frame layout::

    u8   frame_type        # REQUEST / RESPONSE
    u32  call_id           # client-chosen stream id (odd, increasing)
    u8   status            # responses: gRPC status code (0 = OK)
                           # requests:  request-flags byte (REQ_FLAG_*)
    u16  method_len        # requests only
    ...  method path       # "/pkg.Service/Method"
    u64  deadline word     # requests with REQ_FLAG_DEADLINE only:
                           # packed absolute deadline + priority lane
                           # (repro.runtime.overload.pack_deadline)
    u8   compressed_flag   # gRPC message prefix; doubles as wire mode
    u32  message_len       # big-endian, as in gRPC
    ...  message bytes

The status byte was always written as 0 on request frames, so reusing
it as a request-flags byte is wire-compatible: old clients emit flags 0
(no deadline word) and old servers treated the byte as padding.

The compressed flag doubles as the **wire mode**: 0 is standard
protobuf wire, 1 remains gRPC "compressed" (rejected), and 2 marks a
WIRE_FIXED payload — the negotiated branchless fixed-layout encoding of
:mod:`repro.proto.fixed_wire`.  Two extra frame types carry the
negotiation: a SETUP frame whose method field is the client's layout
hash, answered by a SETUP_ACK whose status says whether the server's
hash matches (docs/PROTOCOL.md).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.proto.fixed_wire import WIRE_FIXED, WIRE_STANDARD

__all__ = [
    "FrameType",
    "StatusCode",
    "Frame",
    "FramingError",
    "REQ_FLAG_DEADLINE",
    "encode_request",
    "encode_response",
    "append_response",
    "encode_setup",
    "encode_setup_ack",
    "encode_overload_detail",
    "parse_overload_detail",
    "request_frame_size",
    "write_request_header",
    "FrameDecoder",
]


class FramingError(RuntimeError):
    """Malformed frame."""


class FrameType:
    REQUEST = 1
    RESPONSE = 2
    #: wire-mode negotiation: client -> server, method field = layout hash
    SETUP = 3
    #: server -> client answer; status OK = hashes match, WIRE_FIXED on
    SETUP_ACK = 4


class StatusCode:
    """The gRPC status codes the layer uses."""

    OK = 0
    UNKNOWN = 2
    INVALID_ARGUMENT = 3
    DEADLINE_EXCEEDED = 4
    NOT_FOUND = 5
    #: admission control shed the request before execution; the detail
    #: carries a retry-after hint (docs/OVERLOAD.md).  Safe to retry even
    #: for non-idempotent calls — shed requests never ran.
    RESOURCE_EXHAUSTED = 8
    ABORTED = 10
    UNIMPLEMENTED = 12
    INTERNAL = 13
    UNAVAILABLE = 14


#: request-flags bit: an 8-byte packed deadline word follows the method
REQ_FLAG_DEADLINE = 0x01


@dataclass(slots=True)
class Frame:
    frame_type: int
    call_id: int
    status: int
    method: str
    message: bytes
    #: WIRE_STANDARD (0) or WIRE_FIXED (2) — how ``message`` is encoded
    wire_mode: int = WIRE_STANDARD
    #: packed deadline + lane (repro.runtime.overload), 0 when the
    #: request carried no deadline word
    deadline_word: int = 0


_HEADER = struct.Struct("<BIBH")
_PREFIX = struct.Struct(">BI")  # gRPC's 5-byte prefix: compressed flag + u32 BE length
_DEADLINE = struct.Struct("<Q")


def request_frame_size(
    method_len: int, message_size: int, deadline: bool = False
) -> int:
    """Total bytes of a request frame carrying ``message_size`` payload
    bytes — what a caller allocates before :func:`write_request_header`.
    ``deadline`` reserves the 8-byte deadline word."""
    size = _HEADER.size + method_len + _PREFIX.size + message_size
    return size + _DEADLINE.size if deadline else size


def write_request_header(
    buf, call_id: int, method: bytes, message_size: int,
    wire_mode: int = WIRE_STANDARD, deadline_word: int = 0,
) -> int:
    """Write a request frame's header + method + message prefix into
    ``buf`` (a writable buffer of at least ``request_frame_size`` bytes);
    returns the offset where the message payload belongs.

    The reserve-then-fill half of the zero-copy send path: the serializer
    emits the payload in place at the returned offset instead of handing
    over a ``bytes`` object for concatenation.  A non-zero
    ``deadline_word`` sets REQ_FLAG_DEADLINE and spends 8 bytes after the
    method path (size the buffer with ``deadline=True``).
    """
    req_flags = REQ_FLAG_DEADLINE if deadline_word else 0
    _HEADER.pack_into(buf, 0, FrameType.REQUEST, call_id, req_flags, len(method))
    pos = _HEADER.size
    end = pos + len(method)
    buf[pos:end] = method
    if deadline_word:
        _DEADLINE.pack_into(buf, end, deadline_word)
        end += _DEADLINE.size
    _PREFIX.pack_into(buf, end, wire_mode, message_size)
    return end + _PREFIX.size


def encode_request(
    call_id: int, method: str, message: bytes, deadline_word: int = 0
) -> bytes:
    m = method.encode("utf-8")
    buf = bytearray(
        request_frame_size(len(m), len(message), deadline=bool(deadline_word))
    )
    pos = write_request_header(buf, call_id, m, len(message),
                               deadline_word=deadline_word)
    buf[pos:] = message
    return bytes(buf)


def append_response(out: bytearray, call_id: int, status: int, message,
                    wire_mode: int = WIRE_STANDARD) -> None:
    """Append one response frame carrying ``message`` (any bytes-like,
    copied exactly once) to ``out``, a connection's pending output.  The
    message is the frame's tail: a caller that emits in place appends
    zeros and fills them."""
    out += _HEADER.pack(FrameType.RESPONSE, call_id, status, 0)
    out += _PREFIX.pack(wire_mode, len(message))
    out += message


def encode_response(call_id: int, status: int, message: bytes) -> bytes:
    buf = bytearray()
    append_response(buf, call_id, status, message)
    return bytes(buf)


def encode_setup(layout_hash: str) -> bytes:
    """Wire-mode negotiation request: the layout hash rides in the method
    field (it is connection metadata, not a message payload)."""
    h = layout_hash.encode("ascii")
    buf = bytearray(_HEADER.size + len(h) + _PREFIX.size)
    _HEADER.pack_into(buf, 0, FrameType.SETUP, 0, 0, len(h))
    buf[_HEADER.size : _HEADER.size + len(h)] = h
    _PREFIX.pack_into(buf, _HEADER.size + len(h), 0, 0)
    return bytes(buf)


def encode_overload_detail(stage: str, retry_after_ticks: int = 0) -> bytes:
    """Error-detail payload for RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED
    responses: names the stage that shed or dropped the request and (for
    sheds) the server's retry-after hint in client drive iterations."""
    if retry_after_ticks:
        return f"stage={stage};retry_after_ticks={retry_after_ticks}".encode()
    return f"stage={stage}".encode()


def parse_overload_detail(data: bytes) -> tuple[str, int]:
    """Inverse of :func:`encode_overload_detail`: (stage, retry_after).
    Unknown payloads decode to ("", 0) — the detail is advisory."""
    stage, ticks = "", 0
    for part in data.decode("utf-8", "replace").split(";"):
        key, _, value = part.partition("=")
        if key == "stage":
            stage = value
        elif key == "retry_after_ticks" and value.isdigit():
            ticks = int(value)
    return stage, ticks


def encode_setup_ack(status: int) -> bytes:
    """Negotiation answer: status OK enables WIRE_FIXED on the
    connection; anything else keeps it on standard wire."""
    buf = bytearray(_HEADER.size + _PREFIX.size)
    _HEADER.pack_into(buf, 0, FrameType.SETUP_ACK, 0, status, 0)
    _PREFIX.pack_into(buf, _HEADER.size, 0, 0)
    return bytes(buf)


class FrameDecoder:
    """Incremental decoder over a byte stream (handles short reads).
    A cursor moves over the buffered bytes; what was consumed is dropped
    once per drain — per frame it would move everything still buffered."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0  # start of the first frame not yet handed out

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self):
        """Yield every complete frame currently buffered.  A stream that
        fails framing raises :class:`FramingError` at the offending
        frame, after the frames before it; it stays failed (the bytes
        are kept), so the owner closes the connection."""
        buf = self._buf
        header_size, prefix_size = _HEADER.size, _PREFIX.size
        while True:
            start = self._pos
            if len(buf) - start < header_size:
                break
            frame_type, call_id, status, method_len = _HEADER.unpack_from(buf, start)
            if not FrameType.REQUEST <= frame_type <= FrameType.SETUP_ACK:
                raise FramingError(f"unknown frame type {frame_type}")
            pos = start + header_size
            end = pos + method_len
            has_deadline = frame_type == FrameType.REQUEST and status & REQ_FLAG_DEADLINE
            if len(buf) < end + (_DEADLINE.size if has_deadline else 0) + prefix_size:
                break
            try:
                method = str(buf[pos:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise FramingError(f"method name is not UTF-8: {exc}") from None
            deadline_word = 0
            if has_deadline:
                (deadline_word,) = _DEADLINE.unpack_from(buf, end)
                end += _DEADLINE.size
            wire_mode, msg_len = _PREFIX.unpack_from(buf, end)
            if wire_mode not in (WIRE_STANDARD, 1, WIRE_FIXED):
                raise FramingError(f"bad compressed flag {wire_mode}")
            if wire_mode == 1:
                raise FramingError("compressed messages are not supported")
            pos = end + prefix_size
            end = pos + msg_len
            if len(buf) < end:
                break
            # One copy, and no view outlives the expression: ``feed``
            # may resize the buffer between two frames.
            message = bytes(memoryview(buf)[pos:end])
            self._pos = end
            yield Frame(frame_type, call_id, status, method, message, wire_mode,
                        deadline_word)
        if self._pos:
            del buf[: self._pos]
            self._pos = 0
