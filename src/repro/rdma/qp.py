"""Reliable-connection queue pairs over the simulated fabric.

A :class:`QueuePair` models an RC (reliable connection) QP: posted sends
execute in order, are delivered exactly once, and generate completions on
both sides.  ``RDMA_WRITE_WITH_IMM`` — the paper's workhorse operation
(§II-A) — writes into remote registered memory *without remote CPU
involvement* and consumes one receive WQE on the responder to deliver the
4-byte immediate.

RNR (receiver-not-ready) is modeled faithfully: if the responder has no
receive WQE posted, the operation retries up to ``rnr_retry`` times
(counted in ``rnr_events``, the "massively reduces performance" case of
§IV-C) before the QP breaks.
"""

from __future__ import annotations

import enum
from collections import deque

from .verbs import (
    CompletionQueue,
    Opcode,
    ProtectionDomain,
    ProtectionError,
    QueueOverflowError,
    VerbsError,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

__all__ = ["QpState", "QueuePair"]


class QpState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTS = "rts"  # ready to send (we fold RTR in)
    ERROR = "error"


_INIT, _RTS, _ERROR = QpState.INIT, QpState.RTS, QpState.ERROR
_SEND, _RECV = Opcode.SEND, Opcode.RECV
_WRITE, _WRITE_IMM = Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM
_SUCCESS = WcStatus.SUCCESS


class QueuePair:
    """One endpoint of a reliable connection."""

    def __init__(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_recv_wr: int = 1024,
        rnr_retry: int = 7,
        name: str = "qp",
    ) -> None:
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_recv_wr = max_recv_wr
        self.rnr_retry = rnr_retry
        self.name = name
        self.state = _INIT
        self.peer: QueuePair | None = None
        self.fabric = None  # set by Fabric.connect
        #: posted receive WQEs, oldest first: their wr_ids (a receive
        #: WQE names no memory — a WRITE_WITH_IMM says where it landed)
        self._recv_queue: deque[int] = deque()
        #: optional fault-injection hook (see repro.faults.injector):
        #: every completion this QP pushes is offered to the injector
        #: first (``CompletionQueue.push``), which may drop, delay, or
        #: duplicate it.
        self.injector = None
        # -- statistics ------------------------------------------------------
        self.bytes_sent = 0
        self.bytes_received = 0
        self.sends_posted = 0
        self.rnr_events = 0
        self.error_transitions = 0

    # -- connection management ----------------------------------------------

    def _refuse(self) -> None:
        raise VerbsError(f"{self.name}: invalid in state {self.state.value}")

    def connect(self, peer: "QueuePair", fabric) -> None:
        if self.state is not _INIT:
            self._refuse()
        self.peer = peer
        self.fabric = fabric
        self.state = _RTS

    def connect_remote(self, fabric) -> None:
        """RTS against a peer that lives in *another process*: there is no
        local QP object to point at, so ``peer`` stays None and the fabric
        (e.g. :class:`~repro.rdma.shm_fabric.ShmFabric`) owns delivery
        end-to-end.  Only the in-process fabric ever dereferences
        ``peer``."""
        if self.state is not _INIT:
            self._refuse()
        self.peer = None
        self.fabric = fabric
        self.state = _RTS

    def to_error(self) -> None:
        """Transition to error: flush outstanding receives *and* any sends
        the fabric still holds in flight for this QP, all with
        ``WR_FLUSH_ERROR``.  Idempotent — completion-error paths call it
        re-entrantly."""
        if self.state is _ERROR:
            return
        self.state = _ERROR
        self.error_transitions += 1
        while self._recv_queue:
            self.recv_cq.push(WorkCompletion(
                self._recv_queue.popleft(), _RECV, WcStatus.WR_FLUSH_ERROR), self)
        # Without this, send completions for fabric-held WRs were silently
        # lost on error: the requester could never learn those sends died.
        if self.fabric is not None:
            self.fabric.flush_qp(self)

    def reset_to_init(self) -> None:
        """ERROR → INIT, the recovery transition (real QPs go through
        RESET; we fold it in).  Drops any still-queued receives without
        completions — the caller already consumed the flush — and detaches
        from the peer; :meth:`connect` re-arms the pair."""
        if self.state is not _ERROR and self.state is not _INIT:
            self._refuse()
        self._recv_queue.clear()
        self.peer = None
        self.fabric = None
        self.state = _INIT

    # -- posting --------------------------------------------------------------

    def post_recv(self, wr_id: int) -> None:
        """Post a receive WQE (consumed by inbound SEND or WRITE_WITH_IMM)."""
        if self.state is not _RTS and self.state is not _INIT:
            self._refuse()
        if len(self._recv_queue) >= self.max_recv_wr:
            raise QueueOverflowError(f"{self.name}: receive queue full")
        self._recv_queue.append(wr_id)

    def recv_outstanding(self) -> int:
        return len(self._recv_queue)

    def _consume_recv_wqe(self) -> int | None:
        """Take the oldest receive WQE's wr_id; None on RNR (shm delivery)."""
        return self._recv_queue.popleft() if self._recv_queue else None

    def post_send(self, wr: WorkRequest) -> None:
        """Post to the send queue; the fabric transmits in order."""
        if self.state is not _RTS:
            self._refuse()
        opcode = wr.opcode
        if opcode is not _WRITE_IMM and opcode is not _SEND and opcode is not _WRITE:
            raise VerbsError(f"{self.name}: cannot post {opcode}")
        try:
            self.pd.check_local(wr.local_addr, wr.length)
        except ProtectionError:
            self.send_cq.push(
                WorkCompletion(wr.wr_id, opcode, WcStatus.LOCAL_PROTECTION_ERROR), self)
            self.to_error()
            raise
        self.sends_posted += 1
        self.fabric.transmit(self, wr)

    # -- fabric-side delivery hooks -------------------------------------------

    def deliver(self, wr: WorkRequest, payload: bytes | None) -> WcStatus | None:
        """Called by the fabric on the *responder* QP: land ``wr`` and
        push its receive completion.  Returns the status the requester's
        send completes with — ``REMOTE_ACCESS_ERROR`` for a write no
        REMOTE_WRITE MR covers (checked first; nothing lands, no receive
        WQE is taken) — or None on RNR (no receive WQE for an operation
        that needs one)."""
        if self.state is not _RTS:
            raise VerbsError(f"{self.name}: delivery in state {self.state.value}")
        opcode = wr.opcode
        length = wr.length
        recv_queue = self._recv_queue
        if opcode is _SEND:
            if not recv_queue:
                return None
            # SEND payload lands wherever the application's receive buffer
            # is; our simulation stores it on the WC for simplicity of the
            # bootstrap path (ADT transfer), keeping data-path writes pure.
            self.bytes_received += length
            self.recv_cq.push(WorkCompletion(
                recv_queue.popleft(), _RECV, byte_len=length, payload=payload), self)
            return _SUCCESS
        if opcode is not _WRITE_IMM and opcode is not _WRITE:
            raise VerbsError(f"{self.name}: cannot deliver {opcode}")
        try:
            region = self.pd.find_remote_writable(wr.remote_addr, length or 1).region
        except ProtectionError:
            return WcStatus.REMOTE_ACCESS_ERROR
        wc = None
        if opcode is _WRITE_IMM:
            if not recv_queue:
                return None
            wc = WorkCompletion(recv_queue.popleft(), Opcode.RECV_RDMA_WITH_IMM,
                                byte_len=length, imm_data=wr.imm_data)
        if payload:
            # the MR covers [remote_addr, remote_addr + length): in bounds
            start = wr.remote_addr - region.base
            region.buf[start:start + len(payload)] = payload
        self.bytes_received += length
        if wc is not None:
            self.recv_cq.push(wc, self)
        return _SUCCESS

    def complete_send(self, wr: WorkRequest, status: WcStatus) -> None:
        """Called by the fabric on the requester once delivery resolves."""
        ok = status is _SUCCESS
        if ok:
            self.bytes_sent += wr.length
        self.send_cq.push(WorkCompletion(wr.wr_id, wr.opcode, status, wr.length), self)
        if not ok:
            self.to_error()
