"""Simulated TCP transport for the xRPC substrate.

The paper's DPU terminates the clients' TCP connections ("often TCP/IP",
§III-A) and multiplexes them onto the host link.  This module provides the
minimal byte-stream machinery for that: a :class:`Network` registry of
listening addresses, connection establishment, and in-order reliable byte
streams with partial-read semantics (so framing code must handle short
reads, as over real sockets).
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "TransportError",
    "ConnectionClosed",
    "SimSocket",
    "StreamSocket",
    "Listener",
    "Network",
]


class TransportError(RuntimeError):
    """Connection-level failure."""


class ConnectionClosed(TransportError):
    """The peer closed the stream."""


def _take(rx: bytearray, max_bytes: int) -> bytes:
    """Remove and return up to ``max_bytes`` from the head of ``rx``,
    copying them once."""
    out = bytes(memoryview(rx)[:max_bytes])
    del rx[: len(out)]
    return out


class SimSocket:
    """One direction-pair of byte streams between two endpoints."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._rx = bytearray()
        self.peer: "SimSocket | None" = None
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- wiring ---------------------------------------------------------------

    @classmethod
    def pair(cls, name_a: str = "a", name_b: str = "b") -> tuple["SimSocket", "SimSocket"]:
        a, b = cls(name_a), cls(name_b)
        a.peer, b.peer = b, a
        return a, b

    # -- byte stream ------------------------------------------------------------

    def send(self, data: bytes) -> int:
        if self._closed or self.peer is None:
            raise ConnectionClosed(f"{self.name}: send on closed socket")
        if self.peer._closed:
            raise ConnectionClosed(f"{self.name}: peer closed")
        self.peer._rx += data
        self.peer.bytes_received += len(data)
        self.bytes_sent += len(data)
        return len(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        """Non-blocking read of up to ``max_bytes``; empty result means no
        data *currently* available (distinguish closure with
        :meth:`eof`)."""
        if max_bytes <= 0:
            return b""
        return _take(self._rx, max_bytes)

    def pending(self) -> int:
        return len(self._rx)

    def eof(self) -> bool:
        """True when the peer closed and all buffered bytes are drained."""
        return (self.peer is None or self.peer._closed) and not self._rx

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class StreamSocket:
    """:class:`SimSocket`-compatible adapter over a real OS socket.

    The multiprocess deployments (:mod:`repro.runtime.procs`) carry the
    xRPC byte stream over an ``AF_UNIX`` socketpair between the client
    process and the DPU frontend; this adapter gives that stream the same
    non-blocking partial-read surface the framing layer already handles,
    so :class:`~repro.xrpc.channel.XrpcChannel` and the frontend run
    unchanged over either.
    """

    def __init__(self, sock, name: str = "stream") -> None:
        sock.setblocking(False)
        self._sock = sock
        self.name = name
        self._rx = bytearray()
        self._txq = bytearray()
        self._closed = False
        self._peer_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- byte stream ------------------------------------------------------------

    def send(self, data: bytes) -> int:
        if self._closed:
            raise ConnectionClosed(f"{self.name}: send on closed socket")
        if self._peer_closed:
            raise ConnectionClosed(f"{self.name}: peer closed")
        self._txq += data
        self._drain_tx()
        if self._peer_closed:
            raise ConnectionClosed(f"{self.name}: peer closed")
        self.bytes_sent += len(data)
        return len(data)

    def _drain_tx(self) -> None:
        while self._txq and not self._peer_closed:
            try:
                n = self._sock.send(self._txq)
            except BlockingIOError:
                break
            except OSError:
                self._peer_closed = True
                break
            del self._txq[:n]

    def _pump(self) -> None:
        if self._closed:
            return
        self._drain_tx()
        while not self._peer_closed:
            try:
                data = self._sock.recv(65536)
            except BlockingIOError:
                break
            except OSError:
                self._peer_closed = True
                break
            if not data:
                self._peer_closed = True
                break
            self._rx += data
            self.bytes_received += len(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        if max_bytes <= 0:
            return b""
        self._pump()
        return _take(self._rx, max_bytes)

    def pending(self) -> int:
        self._pump()
        return len(self._rx)

    def eof(self) -> bool:
        """True when the last pump saw the peer close and every byte it
        read has been taken.  It reads nothing itself: asked right after a
        :meth:`recv` that came back empty, a second read would only repeat
        that one's answer."""
        return self._peer_closed and not self._rx

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def unsent(self) -> bool:
        """Whether sent bytes still wait for room in the OS socket."""
        return bool(self._txq)

    def fileno(self) -> int:
        return self._sock.fileno()


class Listener:
    """A listening address: accepts queued connection attempts."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._backlog: deque[SimSocket] = deque()

    def _enqueue(self, server_side: SimSocket) -> None:
        self._backlog.append(server_side)

    def accept(self) -> SimSocket | None:
        """Pop one pending connection, or None."""
        return self._backlog.popleft() if self._backlog else None


class Network:
    """Address registry — the in-process internet."""

    def __init__(self) -> None:
        self._listeners: dict[str, Listener] = {}

    def listen(self, address: str) -> Listener:
        if address in self._listeners:
            raise TransportError(f"address {address!r} already in use")
        listener = Listener(address)
        self._listeners[address] = listener
        return listener

    def connect(self, address: str, client_name: str = "client") -> SimSocket:
        listener = self._listeners.get(address)
        if listener is None:
            raise TransportError(f"connection refused: {address!r}")
        client_side, server_side = SimSocket.pair(client_name, f"{address}#srv")
        listener._enqueue(server_side)
        return client_side

    def close(self, address: str) -> None:
        self._listeners.pop(address, None)
