"""The ``shm`` transport backend: verbs across OS process boundaries.

The in-process :class:`~repro.rdma.fabric.Fabric` moves bytes between two
simulated memories inside one interpreter; this backend keeps the same
:class:`~repro.rdma.verbs.FabricTransport` contract while the two QPs of
a connection live in *different processes*:

* **data path** — each mirrored receive buffer is a
  :class:`~repro.memory.shm.SharedRegion` (``multiprocessing.shared_memory``).
  The requester's fabric plays the DMA engine: at post time it snapshots
  the payload from the local send buffer, runs the ``on_transmit``
  injector hook, validates the destination against the peer's advertised
  MRs (the rkey check), and writes the bytes straight into its own
  mapping of the peer's RBuf segment.  The responder's zero-copy
  ``memoryview`` reads then really do read the same physical pages.

* **doorbell path** — one ``AF_UNIX`` stream socket per QP pair carries
  small control frames: ``HELLO`` (MR advertisement + RNR budget, the
  connection handshake), ``OP`` (an operation's metadata — the doorbell;
  ``SEND`` payloads ride inline since the bootstrap path has no
  registered destination), and ``ACK`` (delivery resolution, which
  generates the requester's send completion).  The socket's FIFO byte
  stream is what gives the backend per-QP reliable-connection ordering.

Completion-after-write visibility holds by construction: payload bytes
land in the shared segment before the ``OP`` frame is sent, and the
responder only learns of the operation from that frame.

RNR retries run on the *responder* side (ordering would break if a NAKed
operation re-queued behind later doorbells): a NAKed op stays at the head
of the port's inbox and retries until a receive WQE appears or the
requester's advertised ``rnr_retry`` budget is spent; the final ``ACK``
carries the retry count so the requester's ``rnr_events`` statistics
match the in-process backend.

Both QPs of a pair may attach to a *single* ``ShmFabric`` (the
single-process deployment used by the conformance suite and recovery
tests — doorbells run over a ``socketpair`` and delivery happens inside
:meth:`flush`), or each side runs its own instance in its own process
with the :mod:`repro.runtime.procs` supervisor brokering sockets and
segment names.
"""

from __future__ import annotations

import select
import socket as socketlib
import struct
import time
from collections import deque

from repro.memory.shm import SharedRegion

from .qp import QpState, QueuePair
from .verbs import (
    FabricTransport,
    Opcode,
    ProtectionError,
    VerbsError,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

__all__ = ["ShmFabric", "HandshakeError"]


class HandshakeError(VerbsError):
    """The doorbell HELLO exchange did not complete in time."""


# -- wire formats (little-endian) ------------------------------------------------

_LEN = struct.Struct("<I")  # frame length prefix (excluding itself)
_KIND_HELLO, _KIND_OP, _KIND_ACK = 1, 2, 3

_HELLO_FIXED = struct.Struct("<BH")  # rnr_retry, region count
_HELLO_REGION = struct.Struct("<QQBB")  # base, size, flags, segment-name length
_REGION_REMOTE_WRITE = 1

_OP = struct.Struct("<BQQQBII")  # opcode, wr_id, remote_addr, length, has_imm, imm, payload_len
_ACK = struct.Struct("<QBQBI")  # wr_id, opcode, length, status, retries

_OPCODE_TO_CODE = {Opcode.SEND: 1, Opcode.RDMA_WRITE: 2, Opcode.RDMA_WRITE_WITH_IMM: 3}
_CODE_TO_OPCODE = {v: k for k, v in _OPCODE_TO_CODE.items()}

_STATUS_TO_CODE = {
    WcStatus.SUCCESS: 0,
    WcStatus.RNR_RETRY_EXCEEDED: 1,
    WcStatus.REMOTE_ACCESS_ERROR: 2,
    WcStatus.WR_FLUSH_ERROR: 3,
}
_CODE_TO_STATUS = {v: k for k, v in _STATUS_TO_CODE.items()}


class _PeerStub:
    """Stands in for the remote sender QP in injector hooks: fault specs
    match on the QP *name*, which the HELLO advertised."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class _Window:
    """One peer-advertised remote-writable MR, as seen by the requester."""

    __slots__ = ("base", "size", "segment", "region")

    def __init__(self, base: int, size: int, segment: str) -> None:
        self.base = base
        self.size = size
        self.segment = segment
        self.region = None  # resolved on first write

    def contains(self, addr: int, length: int) -> bool:
        return self.base <= addr and addr + length <= self.base + self.size


class _Port:
    """One locally-attached QP's seat on the fabric: its doorbell socket,
    buffered frames, and the peer metadata from HELLO."""

    __slots__ = (
        "qp", "sock", "rx", "txq", "inbox", "await_ack", "peer_name",
        "peer_rnr_retry", "windows", "attachments", "hello_received",
        "eof", "errored",
    )

    def __init__(self, qp: QueuePair, sock) -> None:
        self.qp = qp
        self.sock = sock
        self.rx = bytearray()
        self.txq = bytearray()
        #: parsed OP/ACK frames awaiting processing, in arrival order;
        #: OP entries are ``["op", frame, rnr_attempts]`` (mutable for the
        #: head-of-line retry counter), ACK entries ``["ack", frame]``.
        self.inbox: deque[list] = deque()
        #: sends posted by our QP, in post order, awaiting their ACK.
        self.await_ack: deque[WorkRequest] = deque()
        self.peer_name = "remote"
        self.peer_rnr_retry = 7
        self.windows: list[_Window] = []
        self.attachments: list[SharedRegion] = []
        self.hello_received = False
        self.eof = False
        self.errored = False

    def close(self) -> None:
        for region in self.attachments:
            region.cleanup()
        self.attachments.clear()
        try:
            self.sock.close()
        except OSError:
            pass


class ShmFabric(FabricTransport):
    """Doorbell-socket + shared-memory transport backend."""

    transport = "shm"

    def __init__(self, auto_flush: bool = True, injector=None) -> None:
        super().__init__(auto_flush=auto_flush, injector=injector)
        self.name = "shm"
        self._ports: dict[int, _Port] = {}  # id(qp) -> port
        self._rr = 0  # round-robin cursor over ports for step()

    # -- wiring ----------------------------------------------------------------

    def bind(self, qp: QueuePair, sock) -> _Port:
        """Attach ``qp`` to this fabric with ``sock`` as its doorbell; a
        previous binding for the same QP is torn down (reconnect)."""
        old = self._ports.pop(id(qp), None)
        if old is not None:
            old.close()
        sock.setblocking(False)
        port = _Port(qp, sock)
        self._ports[id(qp)] = port
        return port

    def handshake(self, qp: QueuePair, timeout: float = 10.0) -> None:
        """Send our HELLO, wait for the peer's, and bring ``qp`` to RTS.
        The one blocking moment in the backend — everything after runs
        non-blocking under the progress engine."""
        port = self._port(qp)
        self._send_hello(port)
        deadline = time.monotonic() + timeout
        while not port.hello_received:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HandshakeError(f"{self.name}: no HELLO from {qp.name}'s peer")
            self._drain_tx(port)
            select.select([port.sock], [], [], min(remaining, 0.05))
            self._pump(port)
        if qp.state is QpState.INIT:
            qp.connect_remote(self)

    def connect(self, a: QueuePair, b: QueuePair) -> None:
        """Join two local INIT QPs over an internal socketpair — the
        single-process deployment, and what channel recovery calls to
        re-arm a reset pair."""
        sock_a, sock_b = socketlib.socketpair()
        port_a, port_b = self.bind(a, sock_a), self.bind(b, sock_b)
        self._send_hello(port_a)
        self._send_hello(port_b)
        for _ in range(1000):
            self._drain_tx(port_a), self._drain_tx(port_b)
            self._pump(port_a), self._pump(port_b)
            if port_a.hello_received and port_b.hello_received:
                break
        else:  # pragma: no cover - socketpair never withholds bytes
            raise HandshakeError(f"{self.name}: local HELLO exchange stalled")
        a.connect_remote(self)
        b.connect_remote(self)

    def close(self) -> None:
        """Release sockets and shared-segment mappings.  Idempotent."""
        for port in self._ports.values():
            port.close()
        self._ports.clear()

    def _port(self, qp: QueuePair) -> _Port:
        port = self._ports.get(id(qp))
        if port is None:
            raise VerbsError(f"{self.name}: QP {qp.name} is not bound")
        return port

    # -- readiness (a process that waits between passes) ------------------------

    def doorbells(self) -> list[tuple[int, bool]]:
        """``(fd, frames waiting to leave)`` for every doorbell that can
        still deliver — what a process parked between passes waits on
        (:mod:`repro.runtime.procs`).  Read per pass: ``bind`` replaces a
        doorbell on reconnect."""
        return [(port.sock.fileno(), bool(port.txq))
                for port in self._ports.values() if not port.eof]

    def holds_ops(self) -> bool:
        """Whether an op already read off a doorbell waits in an inbox
        (one RNR holds at the head): work no doorbell announces again."""
        return any(port.inbox for port in self._ports.values())

    # -- requester side ---------------------------------------------------------

    def transmit(self, sender: QueuePair, wr: WorkRequest) -> None:
        """Post-time half of an operation: snapshot the payload, run the
        transmit hook, perform the DMA into the peer's shared RBuf (for
        RDMA writes), and ring the doorbell."""
        port = self._port(sender)
        payload = None
        length = wr.length
        if length:
            region = sender.pd.space.region_of(wr.local_addr, length)
            start = wr.local_addr - region.base
            payload = bytes(memoryview(region.buf)[start:start + length])
        if self.injector is not None:
            payload = self.injector.on_transmit(sender, wr, payload)
        if wr.opcode is not Opcode.SEND:
            try:
                window = self._find_window(port, wr.remote_addr, wr.length or 1)
            except ProtectionError:
                # The rkey check fails here, where the DMA would start:
                # nothing is written, no doorbell rings, the send
                # completes in error and the QP breaks (RC semantics).
                sender.complete_send(wr, WcStatus.REMOTE_ACCESS_ERROR)
                return
            if payload:
                self._window_write(port, window, wr.remote_addr, payload)
        inline = payload if wr.opcode is Opcode.SEND else None
        self._send_op(port, wr, inline)
        port.await_ack.append(wr)
        if self.auto_flush:
            self.flush()

    def _find_window(self, port: _Port, addr: int, length: int) -> _Window:
        for window in port.windows:
            if window.contains(addr, length):
                return window
        raise ProtectionError(
            f"{port.qp.name}: peer advertised no REMOTE_WRITE MR covering "
            f"[{addr:#x}, {addr + length:#x})"
        )

    def _window_write(self, port: _Port, window: _Window, addr: int, payload: bytes) -> None:
        if window.region is None:
            if window.segment:
                window.region = SharedRegion.attach(
                    window.base, window.size, window.segment,
                    name=f"{port.peer_name}.window",
                )
                port.attachments.append(window.region)
            else:
                window.region = self._local_region(window)
        window.region.write(addr, payload)

    def _local_region(self, window: _Window):
        """Single-process fallback: the peer's MR was advertised without a
        segment (a plain in-heap region), so the actual region object must
        be reachable through a locally-attached QP's PD."""
        for port in self._ports.values():
            for mr in port.qp.pd._regions:
                if mr.region.base == window.base and mr.region.size == window.size:
                    return mr.region
        raise ProtectionError(
            f"{self.name}: MR at {window.base:#x} is not shared memory and "
            "its owner is not in this process"
        )

    # -- the doorbell protocol ---------------------------------------------------

    def _send_hello(self, port: _Port) -> None:
        qp = port.qp
        name = qp.name.encode()
        body = bytearray()
        body += bytes([_KIND_HELLO, len(name)]) + name
        regions = qp.pd._regions
        body += _HELLO_FIXED.pack(qp.rnr_retry, len(regions))
        for mr in regions:
            flags = _REGION_REMOTE_WRITE if mr.remote_write else 0
            seg = mr.region.segment.encode() if isinstance(mr.region, SharedRegion) else b""
            body += _HELLO_REGION.pack(mr.region.base, mr.region.size, flags, len(seg))
            body += seg
        self._send_bytes(port, _LEN.pack(len(body)) + bytes(body))

    def _send_op(self, port: _Port, wr: WorkRequest, inline: bytes | None) -> None:
        payload = inline or b""
        body = bytes([_KIND_OP]) + _OP.pack(
            _OPCODE_TO_CODE[wr.opcode], wr.wr_id, wr.remote_addr, wr.length,
            int(wr.imm_data is not None), wr.imm_data or 0, len(payload),
        ) + payload
        self._send_bytes(port, _LEN.pack(len(body)) + body)

    def _send_ack(self, port: _Port, wr_id: int, opcode: Opcode, length: int,
                  status: WcStatus, retries: int = 0) -> None:
        body = bytes([_KIND_ACK]) + _ACK.pack(
            wr_id, _OPCODE_TO_CODE[opcode], length, _STATUS_TO_CODE[status], retries
        )
        self._send_bytes(port, _LEN.pack(len(body)) + body)

    def _send_bytes(self, port: _Port, data: bytes) -> None:
        if port.eof:
            return  # the peer is gone; the EOF path resolves the QP
        port.txq += data
        self._drain_tx(port)

    def _drain_tx(self, port: _Port) -> int:
        sent = 0
        while port.txq:
            try:
                n = port.sock.send(port.txq)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                port.eof = True
                break
            del port.txq[:n]
            sent += n
        return sent

    def _pump(self, port: _Port) -> None:
        """Pull available bytes off the doorbell and parse whole frames
        into the port's inbox (HELLOs are metadata, handled inline)."""
        while not port.eof:
            try:
                data = port.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                port.eof = True
                break
            if not data:
                port.eof = True
                break
            port.rx += data
        while True:
            if len(port.rx) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(port.rx)
            if len(port.rx) < _LEN.size + length:
                return
            frame = bytes(port.rx[_LEN.size : _LEN.size + length])
            del port.rx[: _LEN.size + length]
            kind = frame[0]
            if kind == _KIND_HELLO:
                self._parse_hello(port, frame)
            elif kind == _KIND_OP:
                port.inbox.append(["op", self._parse_op(frame), 0])
            elif kind == _KIND_ACK:
                port.inbox.append(["ack", _ACK.unpack_from(frame, 1)])
            else:
                raise VerbsError(f"{self.name}: unknown doorbell frame kind {kind}")

    def _parse_hello(self, port: _Port, frame: bytes) -> None:
        name_len = frame[1]
        at = 2 + name_len
        port.peer_name = frame[2:at].decode()
        rnr_retry, count = _HELLO_FIXED.unpack_from(frame, at)
        at += _HELLO_FIXED.size
        port.peer_rnr_retry = rnr_retry
        port.windows = []
        for region in port.attachments:
            region.cleanup()
        port.attachments = []
        for _ in range(count):
            base, size, flags, seg_len = _HELLO_REGION.unpack_from(frame, at)
            at += _HELLO_REGION.size
            seg = frame[at : at + seg_len].decode()
            at += seg_len
            if flags & _REGION_REMOTE_WRITE:
                port.windows.append(_Window(base, size, seg))
        port.hello_received = True

    def _parse_op(self, frame: bytes):
        code, wr_id, remote_addr, length, has_imm, imm, payload_len = _OP.unpack_from(frame, 1)
        payload = frame[1 + _OP.size : 1 + _OP.size + payload_len] if payload_len else b""
        wr = WorkRequest(
            wr_id, _CODE_TO_OPCODE[code], length=length, remote_addr=remote_addr,
            imm_data=imm if has_imm else None,
        )
        return (wr, payload)

    # -- responder / resolution side ----------------------------------------------

    def step(self) -> bool:
        """Resolve one unit of transport work across all attached ports
        (round-robin for fairness); False when nothing is ready."""
        if self.injector is not None:
            self.injector.tick(self)
        ports = list(self._ports.values())
        for k in range(len(ports)):
            port = ports[(self._rr + k) % len(ports)]
            if self._step_port(port):
                self._rr = (self._rr + k + 1) % len(ports)
                return True
        return False

    def _step_port(self, port: _Port) -> bool:
        if self._drain_tx(port):
            return True
        self._pump(port)
        if port.inbox:
            entry = port.inbox[0]
            if entry[0] == "ack":
                port.inbox.popleft()
                self._handle_ack(port, entry[1])
                return True
            return self._handle_op(port, entry)
        if port.eof and not port.errored:
            # The doorbell died under us — the peer process is gone.  RC
            # semantics: every outstanding send flushes, the QP breaks,
            # and the endpoint above surfaces a TransportError.
            port.errored = True
            port.qp.to_error()
            return True
        return False

    def _handle_ack(self, port: _Port, ack) -> None:
        wr_id, code, length, status_code, retries = ack
        if not port.await_ack:
            return  # stale ack after a recovery discard
        wr = port.await_ack.popleft()
        if wr.wr_id != wr_id:
            # Out-of-order resolution can only follow a partial discard;
            # drop the ack unless it matches something still pending.
            match = next((w for w in port.await_ack if w.wr_id == wr_id), None)
            port.await_ack.appendleft(wr)
            if match is None:
                return
            port.await_ack.remove(match)
            wr = match
        if retries:
            port.qp.rnr_events += retries
        port.qp.complete_send(wr, _CODE_TO_STATUS[status_code])

    def _handle_op(self, port: _Port, entry) -> bool:
        wr, payload = entry[1]
        qp = port.qp
        if self.injector is not None:
            verdict = self.injector.on_op(self, _PeerStub(port.peer_name), wr)
            if verdict == "drop_op":
                # The operation (and both completions) vanish — no ACK, so
                # the requester's send dangles: the lost-completion fault
                # the recovery machinery must detect.
                port.inbox.popleft()
                return True
            if verdict == "qp_error":
                # The requester resolves to WR_FLUSH_ERROR, which errors
                # its QP — the same blast radius as the in-process backend.
                port.inbox.popleft()
                self._send_ack(port, wr.wr_id, wr.opcode, wr.length,
                               WcStatus.WR_FLUSH_ERROR, retries=entry[2])
                return True
        if qp.state is not QpState.RTS:
            port.inbox.popleft()
            self.flushed_operations += 1
            self._send_ack(port, wr.wr_id, wr.opcode, wr.length,
                           WcStatus.WR_FLUSH_ERROR, retries=entry[2])
            return True
        if wr.opcode is Opcode.SEND or wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
            rwr = qp._consume_recv_wqe()
            if rwr is None:
                # RNR NAK — retry responder-side so ordering holds: the op
                # stays at the head of the inbox until a WQE appears or
                # the requester's advertised budget is spent.
                self.rnr_retransmissions += 1
                entry[2] += 1
                if entry[2] > port.peer_rnr_retry:
                    port.inbox.popleft()
                    self._send_ack(port, wr.wr_id, wr.opcode, wr.length,
                                   WcStatus.RNR_RETRY_EXCEEDED, retries=entry[2])
                return True
            port.inbox.popleft()
            qp.bytes_received += wr.length
            if wr.opcode is Opcode.SEND:
                qp.recv_cq.push(WorkCompletion(
                    rwr, Opcode.RECV, byte_len=wr.length, payload=bytes(payload)), qp)
            else:
                # The payload already landed via the shared segment (or
                # the local-region fallback) at post time.
                qp.recv_cq.push(WorkCompletion(
                    rwr, Opcode.RECV_RDMA_WITH_IMM, byte_len=wr.length,
                    imm_data=wr.imm_data), qp)
                if self.trace is not None:
                    self.trace.instant("rdma_write", bytes=wr.length, imm=wr.imm_data)
            self.total_bytes += wr.length
            self.total_operations += 1
            self._send_ack(port, wr.wr_id, wr.opcode, wr.length,
                           WcStatus.SUCCESS, retries=entry[2])
            return True
        if wr.opcode is Opcode.RDMA_WRITE:
            port.inbox.popleft()
            qp.bytes_received += wr.length
            self.total_bytes += wr.length
            self.total_operations += 1
            self._send_ack(port, wr.wr_id, wr.opcode, wr.length,
                           WcStatus.SUCCESS, retries=entry[2])
            return True
        raise VerbsError(f"{self.name}: cannot deliver {wr.opcode}")

    # -- teardown paths ----------------------------------------------------------

    def flush_qp(self, qp: QueuePair) -> int:
        """Complete every unresolved send posted by ``qp`` with
        ``WR_FLUSH_ERROR`` (called from :meth:`QueuePair.to_error`)."""
        port = self._ports.get(id(qp))
        if port is None:
            return 0
        flushed = 0
        while port.await_ack:
            wr = port.await_ack.popleft()
            flushed += 1
            self.flushed_operations += 1
            qp.send_cq.push(
                WorkCompletion(wr.wr_id, wr.opcode, WcStatus.WR_FLUSH_ERROR), qp)
        return flushed

    def discard_in_flight(self) -> int:
        """The recovery 'cable pull': drop unresolved sends, undelivered
        doorbells, and anything buffered in either direction."""
        discarded = 0
        for port in self._ports.values():
            discarded += len(port.await_ack)
            discarded += sum(1 for entry in port.inbox if entry[0] == "op")
            port.await_ack.clear()
            port.inbox.clear()
            port.txq.clear()
            port.rx.clear()
            while not port.eof:
                try:
                    if not port.sock.recv(1 << 16):
                        port.eof = True
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    port.eof = True
        return discarded

    @property
    def in_flight(self) -> int:
        total = 0
        for port in self._ports.values():
            total += len(port.await_ack)
            total += sum(1 for entry in port.inbox if entry[0] == "op")
        return total
