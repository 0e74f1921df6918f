"""The simulated fabric: in-order transport between connected QPs.

On real hardware this is the DMA engine moving bytes between host and DPU
memory across PCIe (§II-C "in practice, the driver will leverage the
host's DMA hardware").  The fabric:

* preserves reliable-connection ordering per QP (FIFO transmit queue);
* copies payload bytes from the requester's registered memory into the
  responder's registered memory — the only way bytes ever cross sides,
  keeping the mirrored-buffer illusion honest;
* retries RNR-hit operations (responder had no receive WQE) up to the
  QP's ``rnr_retry`` budget, then fails the send with
  ``RNR_RETRY_EXCEEDED``;
* accounts transferred bytes per direction, which the PCIe-bandwidth
  figure (Fig. 8b) reads back.

``auto_flush=True`` (the default) delivers synchronously at post time,
which is the right model for the functional stack: :meth:`transmit`
resolves an op posted onto an idle wire through the body :meth:`step`
runs (injector tick, op verdict, delivery, both completions), so a fault
plan sees one timeline either way.  Tests that interleave the two sides
set ``auto_flush=False`` and call :meth:`flush` or :meth:`step`.
"""

from __future__ import annotations

from collections import deque

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

__all__ = ["Fabric"]

_RTS = QpState.RTS
_SEND, _WRITE, _WRITE_IMM = Opcode.SEND, Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM
_RECV, _RECV_IMM = Opcode.RECV, Opcode.RECV_RDMA_WITH_IMM
_SUCCESS = WcStatus.SUCCESS
_new = tuple.__new__


class Fabric(FabricTransport):
    """The ``inproc`` transport backend: connects QP pairs living in one
    process and moves bytes between them directly."""

    transport = "inproc"

    def __init__(self, auto_flush: bool = True, injector=None) -> None:
        super().__init__(auto_flush=auto_flush, injector=injector)
        self._wire: deque[tuple[QueuePair, WorkRequest, bytes | None, int]] = deque()

    # -- wiring ----------------------------------------------------------------

    def connect(self, a: QueuePair, b: QueuePair) -> None:
        """Bring two INIT QPs to RTS, joined through this fabric."""
        a.connect(b, self)
        b.connect(a, self)

    # -- transmission -----------------------------------------------------------

    def transmit(self, sender: QueuePair, wr: WorkRequest) -> None:
        """Accept ``wr`` for in-order delivery, reading its payload *now*
        (the HCA DMAs at post time; the buffer may be reused only after
        the send completion) from the span ``post_send`` checked.  With
        ``auto_flush`` it resolves before this returns: onto an idle wire
        directly, as the step that pops it."""
        payload = None
        length = wr.length
        if length:
            base, _, region = sender.local_span
            start = wr.local_addr - base
            payload = bytes(region.buf[start:start + length])
        if self.injector is not None:
            payload = self.injector.on_transmit(sender, wr, payload)
        if self.auto_flush and not self._wire:
            self._resolve(sender, wr, payload, 0)
        else:
            self._wire.append((sender, wr, payload, 0))
        if self.auto_flush and self._wire:
            self.flush()

    def step(self) -> bool:
        """Deliver the oldest in-flight operation.  Returns False when the
        wire is idle."""
        if not self._wire:
            if self.injector is not None:
                self.injector.tick(self)
            return False
        self._resolve(*self._wire.popleft())
        return True

    def _resolve(self, sender: QueuePair, wr: WorkRequest, payload: bytes | None,
                 attempts: int) -> None:
        """One step's work on one operation, in one function: injector
        tick and verdict, delivery (a write checked against the
        responder's ``landing_span``; one no REMOTE_WRITE MR covers lands
        nothing), both completions — or, on RNR, the operation back at
        the head of the wire."""
        injector = self.injector
        if injector is not None:
            injector.tick(self)
        receiver = sender.peer
        if receiver is None:
            raise VerbsError("QP is not connected")
        if injector is not None:
            verdict = injector.on_op(self, sender, wr)
            if verdict == "drop_op":
                # The operation (and both completions) vanish: the lost-
                # completion fault the recovery machinery must detect.
                return
            if verdict == "qp_error":
                # The popped op is already off the wire; to_error flushes
                # the rest, complete_send flushes this one.
                sender.to_error()
                sender.complete_send(wr, WcStatus.WR_FLUSH_ERROR)
                return
        if sender.state is not _RTS or receiver.state is not _RTS:
            # One side died while the op was in flight: the requester sees
            # a flush, never a silent loss (RC semantics).
            self.flushed_operations += 1
            sender.complete_send(wr, WcStatus.WR_FLUSH_ERROR)
            return
        opcode, length = wr.opcode, wr.length
        if opcode is not _SEND:
            addr = wr.remote_addr
            span = receiver.landing_span
            if addr < span[0] or addr + (length or 1) > span[1]:
                try:
                    region = receiver.pd.find_remote_writable(addr, length or 1).region
                except ProtectionError:
                    sender.complete_send(wr, WcStatus.REMOTE_ACCESS_ERROR)
                    return
                span = receiver.landing_span = (region.base, region.base + region.size, region)
        recv_queue = receiver._recv_queue
        if opcode is not _WRITE and not recv_queue:
            # RNR NAK: responder not ready.  Retry preserving order —
            # the operation goes back to the head of the wire.
            self.rnr_retransmissions += 1
            sender.rnr_events += 1
            if attempts + 1 > sender.rnr_retry:
                sender.complete_send(wr, WcStatus.RNR_RETRY_EXCEEDED)
            else:
                self._wire.appendleft((sender, wr, payload, attempts + 1))
            return
        # completions built as the tuples they are
        if opcode is _SEND:
            # SEND payload lands wherever the application's receive buffer
            # is; the simulation hands it over on the WC (the bootstrap
            # path), keeping data-path writes pure.
            wc = _new(WorkCompletion, (recv_queue.popleft(), _RECV, _SUCCESS, length, None,
                                       payload))
        else:
            wc = None
            if opcode is _WRITE_IMM:
                wc = _new(WorkCompletion, (recv_queue.popleft(), _RECV_IMM, _SUCCESS, length,
                                           wr.imm_data, None))
            if payload:
                # the MR covers [remote_addr, remote_addr + length): in bounds
                start = addr - span[0]
                span[2].buf[start:start + len(payload)] = payload
        receiver.bytes_received += length
        if wc is not None:
            receiver.recv_cq.push(wc, receiver)
        self.total_bytes += length
        self.total_operations += 1
        if self.trace is not None and opcode is _WRITE_IMM:
            self.trace.instant("rdma_write", bytes=length, imm=wr.imm_data)
        sender.bytes_sent += length
        sender.send_cq.push(
            _new(WorkCompletion, (wr.wr_id, opcode, _SUCCESS, length, None, None)), sender)

    def flush_qp(self, qp: QueuePair) -> int:
        """Flush every in-flight operation posted by ``qp`` with
        ``WR_FLUSH_ERROR`` (called from :meth:`QueuePair.to_error`); the
        send completions land on the requester's send CQ so it learns
        which sends died.  Returns the number flushed."""
        kept, flushed = deque(), 0
        while self._wire:
            sender, wr, payload, attempts = self._wire.popleft()
            if sender is qp:
                flushed += 1
                self.flushed_operations += 1
                qp.send_cq.push(
                    WorkCompletion(wr.wr_id, wr.opcode, WcStatus.WR_FLUSH_ERROR), qp)
            else:
                kept.append((sender, wr, payload, attempts))
        self._wire = kept
        return flushed

    def discard_in_flight(self) -> int:
        """Drop every queued operation without completions — the recovery
        teardown's 'cable pull' before both QPs are rebuilt."""
        n = len(self._wire)
        self._wire.clear()
        return n

    @property
    def in_flight(self) -> int:
        return len(self._wire)
