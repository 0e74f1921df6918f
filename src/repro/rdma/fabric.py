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
    VerbsError,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

__all__ = ["Fabric"]

_RTS = QpState.RTS


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
        the send completion).  With ``auto_flush`` it resolves before this
        returns: onto an idle wire directly, as the step that pops it."""
        payload = None
        length = wr.length
        if length:
            region = sender.pd.space.region_of(wr.local_addr, length)
            start = wr.local_addr - region.base
            payload = bytes(memoryview(region.buf)[start:start + length])
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
        """One step's work on one operation, off the wire: injector tick,
        op verdict, delivery, completions on both sides — or, on RNR, the
        operation back at the head of the wire."""
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
        status = receiver.deliver(wr, payload)
        if status is None:
            # RNR NAK: responder not ready.  Retry preserving order —
            # the operation goes back to the head of the wire.
            self.rnr_retransmissions += 1
            sender.rnr_events += 1
            if attempts + 1 > sender.rnr_retry:
                sender.complete_send(wr, WcStatus.RNR_RETRY_EXCEEDED)
            else:
                self._wire.appendleft((sender, wr, payload, attempts + 1))
            return
        if status is WcStatus.SUCCESS:
            self.total_bytes += wr.length
            self.total_operations += 1
            if self.trace is not None and wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
                self.trace.instant("rdma_write", bytes=wr.length, imm=wr.imm_data)
        sender.complete_send(wr, status)

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
