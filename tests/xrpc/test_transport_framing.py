"""Tests for the simulated TCP transport and xRPC framing."""

from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proto import compile_schema
from repro.xrpc import (
    ConnectionClosed,
    FrameDecoder,
    FrameType,
    FramingError,
    Network,
    SimSocket,
    TransportError,
    XrpcServer,
    encode_request,
    encode_response,
)
from repro.xrpc.framing import encode_setup, encode_setup_ack
from repro.xrpc.transport import StreamSocket


class TestTransport:
    def test_pair_bidirectional(self):
        a, b = SimSocket.pair()
        a.send(b"ping")
        assert b.recv() == b"ping"
        b.send(b"pong")
        assert a.recv() == b"pong"

    def test_partial_reads(self):
        a, b = SimSocket.pair()
        a.send(b"abcdef")
        assert b.recv(2) == b"ab"
        assert b.recv(2) == b"cd"
        assert b.pending() == 2
        assert b.recv() == b"ef"
        assert b.recv() == b""

    def test_send_after_close_raises(self):
        a, b = SimSocket.pair()
        b.close()
        with pytest.raises(ConnectionClosed):
            a.send(b"x")

    def test_eof_after_drain(self):
        a, b = SimSocket.pair()
        a.send(b"last")
        a.close()
        assert not b.eof()  # data still buffered
        assert b.recv() == b"last"
        assert b.eof()

    def test_network_listen_connect(self):
        net = Network()
        listener = net.listen("h:1")
        client = net.connect("h:1")
        server_side = listener.accept()
        assert server_side is not None
        client.send(b"hi")
        assert server_side.recv() == b"hi"
        assert listener.accept() is None

    def test_connection_refused(self):
        net = Network()
        with pytest.raises(TransportError, match="refused"):
            net.connect("nowhere:9")

    def test_address_in_use(self):
        net = Network()
        net.listen("h:1")
        with pytest.raises(TransportError, match="in use"):
            net.listen("h:1")

    def test_multiple_clients(self):
        net = Network()
        listener = net.listen("h:1")
        clients = [net.connect("h:1", f"c{i}") for i in range(3)]
        servers = [listener.accept() for _ in range(3)]
        for i, (c, s) in enumerate(zip(clients, servers)):
            c.send(f"msg{i}".encode())
            assert s.recv() == f"msg{i}".encode()

    def test_an_idle_stream_connection_costs_one_recv_per_pass(self):
        """The front door asks ``eof()`` right after the pass's empty
        ``recv``; over an OS socket that answer costs no second read, and
        a peer's close is still seen in the pass whose read saw it."""

        class CountingSocket:
            def __init__(self, sock) -> None:
                self.sock, self.recvs = sock, 0

            def recv(self, n: int) -> bytes:
                self.recvs += 1
                return self.sock.recv(n)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        ours, theirs = socket.socketpair()
        counting = CountingSocket(ours)
        server = XrpcServer(None, "stream", compile_schema('syntax = "proto3";').factory)
        server.adopt(StreamSocket(counting, "front"))
        for _ in range(5):
            server.progress()
        assert counting.recvs == 5
        theirs.close()
        server.progress()
        assert counting.recvs == 6
        assert server.sockets() == []  # let go of in that pass
        assert ours.fileno() == -1


class TestFraming:
    def test_request_roundtrip(self):
        dec = FrameDecoder()
        dec.feed(encode_request(7, "/pkg.Svc/M", b"payload"))
        frames = list(dec.frames())
        assert len(frames) == 1
        f = frames[0]
        assert f.frame_type == FrameType.REQUEST
        assert f.call_id == 7
        assert f.method == "/pkg.Svc/M"
        assert f.message == b"payload"

    def test_response_roundtrip(self):
        dec = FrameDecoder()
        dec.feed(encode_response(9, 13, b"err"))
        f = next(dec.frames())
        assert f.frame_type == FrameType.RESPONSE
        assert f.status == 13
        assert f.message == b"err"

    def test_grpc_message_prefix_is_big_endian(self):
        data = encode_request(1, "/a/b", b"xyz")
        # last 3 bytes payload; 5 before: 0x00 + len BE
        prefix = data[-8:-3]
        assert prefix == b"\x00\x00\x00\x00\x03"

    def test_incremental_decoding_byte_by_byte(self):
        raw = encode_request(3, "/s/m", b"abc") + encode_response(3, 0, b"d")
        dec = FrameDecoder()
        got = []
        for byte in raw:
            dec.feed(bytes([byte]))
            got.extend(dec.frames())
        assert [f.frame_type for f in got] == [FrameType.REQUEST, FrameType.RESPONSE]

    def test_unknown_frame_type(self):
        dec = FrameDecoder()
        dec.feed(b"\x09" + b"\x00" * 16)
        with pytest.raises(FramingError):
            list(dec.frames())

    def test_compressed_flag_rejected(self):
        raw = bytearray(encode_request(1, "/a/b", b"zz"))
        raw[8 + 4] = 1  # header(8) + method(4) -> compressed flag
        dec = FrameDecoder()
        dec.feed(bytes(raw))
        with pytest.raises(FramingError, match="compressed"):
            list(dec.frames())

    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(1, 1 << 31), st.text(min_size=1, max_size=30), st.binary(max_size=100)
            ),
            min_size=1,
            max_size=10,
        ),
        chunk=st.integers(1, 64),
    )
    def test_stream_reassembly_any_chunking(self, calls, chunk):
        raw = b"".join(encode_request(cid, m, p) for cid, m, p in calls)
        dec = FrameDecoder()
        got = []
        for i in range(0, len(raw), chunk):
            dec.feed(raw[i : i + chunk])
            got.extend(dec.frames())
        assert [(f.call_id, f.method, f.message) for f in got] == calls


# -- the cursor decoder against the decoder it replaced -----------------------


class _ReferenceDecoder:
    """``FrameDecoder`` as it was before it decoded with a cursor: one
    ``del buf[:n]`` per frame, two copies per message.  Kept as the
    reference the cursor decoder must agree with, frame for frame."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self):
        while True:
            frame = self._try_decode()
            if frame is None:
                return
            yield frame

    def _try_decode(self):
        from repro.xrpc.framing import _DEADLINE, _HEADER, _PREFIX, REQ_FLAG_DEADLINE

        buf = self._buf
        if len(buf) < _HEADER.size:
            return None
        frame_type, call_id, status, method_len = _HEADER.unpack_from(buf, 0)
        if frame_type not in (FrameType.REQUEST, FrameType.RESPONSE,
                              FrameType.SETUP, FrameType.SETUP_ACK):
            raise FramingError(f"unknown frame type {frame_type}")
        pos = _HEADER.size
        deadline_len = (
            _DEADLINE.size
            if frame_type == FrameType.REQUEST and status & REQ_FLAG_DEADLINE else 0
        )
        if len(buf) < pos + method_len + deadline_len + _PREFIX.size:
            return None
        try:
            method = bytes(buf[pos : pos + method_len]).decode("utf-8")
        except UnicodeDecodeError as exc:  # the bug the cursor decoder fixes
            raise FramingError(str(exc)) from None
        pos += method_len
        deadline_word = 0
        if deadline_len:
            (deadline_word,) = _DEADLINE.unpack_from(buf, pos)
            pos += deadline_len
        wire_mode, msg_len = _PREFIX.unpack_from(buf, pos)
        if wire_mode not in (0, 1, 2):
            raise FramingError(f"bad compressed flag {wire_mode}")
        if wire_mode == 1:
            raise FramingError("compressed messages are not supported")
        pos += _PREFIX.size
        if len(buf) < pos + msg_len:
            return None
        message = bytes(buf[pos : pos + msg_len])
        del buf[: pos + msg_len]
        return (frame_type, call_id, status, method, message, wire_mode, deadline_word)


def _drain(decoder) -> tuple[list, bool]:
    """(frames handed out, whether the drain ended in FramingError)."""
    out = []
    try:
        for f in decoder.frames():
            out.append(f if isinstance(f, tuple) else (
                f.frame_type, f.call_id, f.status, f.method, f.message,
                f.wire_mode, f.deadline_word))
    except FramingError:
        return out, True
    return out, False


_valid_frames = st.one_of(
    st.builds(encode_request, st.integers(0, (1 << 32) - 1), st.text(max_size=40),
              st.binary(max_size=300), st.sampled_from([0, 0, 1, (1 << 64) - 1])),
    st.builds(encode_response, st.integers(0, (1 << 32) - 1), st.integers(0, 255),
              st.binary(max_size=300)),
    st.builds(encode_setup, st.text("0123456789abcdef", max_size=64)),
    st.builds(encode_setup_ack, st.integers(0, 255)),
)


@settings(max_examples=300, deadline=None)
@given(
    frames=st.lists(_valid_frames, min_size=1, max_size=12),
    flips=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 24), st.integers(0, 255)), max_size=2),
    cuts=st.lists(st.integers(1, 400), min_size=1, max_size=30),
)
def test_cursor_decoder_agrees_with_the_decoder_it_replaced(frames, flips, cuts):
    """Arbitrary valid streams (no ``flips``) and corrupted ones (a byte
    in some frame's first 25 — type, lengths, method, wire mode), under
    arbitrary chunking: the same frames after every feed, and a framing
    failure at the same frame — which both then keep reporting."""
    frames = [bytearray(f) for f in frames]
    for which, where, value in flips:
        frame = frames[which % len(frames)]
        frame[where % len(frame)] = value
    raw = b"".join(frames)
    cursor, reference = FrameDecoder(), _ReferenceDecoder()
    pos = step = 0
    while pos < len(raw):
        cut = cuts[step % len(cuts)]
        chunk = bytes(raw[pos : pos + cut])
        pos += cut
        step += 1
        cursor.feed(chunk)
        reference.feed(chunk)
        got, expected = _drain(cursor), _drain(reference)
        assert got == expected
        if expected[1]:
            assert _drain(cursor) == ([], True)  # it stays failed
            return
    if not flips:
        assert not cursor._buf and cursor._pos == 0  # everything consumed
