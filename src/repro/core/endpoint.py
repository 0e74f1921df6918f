"""RPC-over-RDMA client and server endpoints (§III–IV).

The client (DPU side) enqueues requests; the server (host side) dispatches
them to registered callbacks and returns responses.  Both sides move data
exclusively as *blocks* written into the peer's mirrored receive buffer by
``RDMA WRITE_WITH_IMM``, with the block bucket in the immediate data.

The full protocol state machine implemented here:

* Nagle-style batching — messages accumulate in an open block; the block
  is sent when it reaches ``block_size`` or when the event loop flushes a
  partial block (low-workload latency bound, §IV).
* Credit-based congestion control — one credit per block in flight;
  sealed blocks queue when credits run out (§IV-C).
* Implicit acknowledgment & memory recycling (§IV-B) —

  - the *server* acknowledges request blocks by answering their requests;
    the client releases a request block (and its credit) once every
    request in it is answered;
  - the *client* acknowledges response blocks through a counter in the
    preamble of its next request block; the server releases that many of
    its oldest outstanding response blocks (and credits).

* Deterministic request-ID synchronization (§IV-D) — IDs never travel
  with requests.  On sending a block the client first frees the IDs
  answered by the response blocks it is acknowledging, then allocates IDs
  for the block's messages; the server replays exactly the same two steps
  when the block arrives.  The reliable connection makes the two
  sequences identical.

Threading (§III-C/D): endpoints are event-loop objects — the application
calls :meth:`progress` repeatedly ("an event loop function that should be
called continuously").  Every RPC runs to completion inside ``progress``,
in the thread that polls — the prototype's foreground execution.

Endpoints do not own their loop: :meth:`progress` *is* one event-loop
pass, a plain method that a :class:`~repro.runtime.engine.ProgressEngine`
(docs/RUNTIME.md) or an owner driving the endpoint by hand calls; only
the engine's own polls are counted, scheduled and supervised.  Both
roles send through one path — ``_append`` puts a message into the open
block, ``_send`` seals it and transmits queued blocks as credits allow,
``flush`` / ``_flush_by_policy`` decide when a partial one goes (after
``flush_hold`` passes; 0, every pass) — whose rules docs/PROTOCOL.md §3
"Sender rules" states once; and receive through one, ``_receive``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.memory import (
    AddressSpace,
    AllocationError,
    MemoryRegion,
    OffsetAllocator,
)
from repro.proto.wire_format import WireFormatError
from repro.metrics.registry import counter, gauge
from repro.rdma import CompletionQueue, Opcode, QpState, QueuePair, WcStatus, WorkRequest
from repro.runtime.overload import now_us, unpack_deadline

from .config import ProtocolConfig
from .credits import CreditManager
from .idpool import RequestIdPool
from .wire import (
    PREAMBLE_SIZE,
    BlockReader,
    BlockWriter,
    Flags,
    MessageTooLarge,
    ProtocolError,
    bucket_to_offset,
    offset_to_bucket,
    stamp_transmit,
)

__all__ = [
    "ProtocolError",
    "TransportError",
    "IncomingRequest",
    "Response",
    "ClientEndpoint",
    "ServerEndpoint",
    "EndpointStats",
    "endpoint_families",
]

#: Writer callback: writes payload bytes at ``addr`` and returns the actual
#: payload size (must be <= the reserved size).
PayloadWriter = Callable[[AddressSpace, int], int]
#: Client continuation: (payload memoryview, flags) -> None
Continuation = Callable[[memoryview, int], None]


class TransportError(ProtocolError):
    """The reliable connection itself failed: an error completion (QP
    flush, RNR exhaustion, protection fault) surfaced in the CQ.  The
    recovery machinery (:mod:`repro.core.recovery`) catches this and
    resets the connection instead of letting the endpoint die."""

    def __init__(self, name: str, status) -> None:
        super().__init__(f"{name}: completion error {status}")
        self.status = status


@dataclass
class EndpointStats:
    """Library-level instrumentation (§VI: 'directly instrumentalized at
    the library level'); a registry reads it through
    :func:`endpoint_families`."""

    requests_sent: int = 0
    responses_received: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    blocks_sent: int = 0
    blocks_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    handler_errors: int = 0


_STATS_HELP = (
    ("requests_sent", "requests enqueued by the client"),
    ("responses_received", "responses delivered to continuations"),
    ("requests_received", "requests dispatched to handlers"),
    ("responses_sent", "responses enqueued by the server"),
    ("blocks_sent", "protocol blocks transmitted"),
    ("blocks_received", "protocol blocks received"),
    ("bytes_sent", "payload bytes transmitted"),
    ("bytes_received", "payload bytes received"),
    ("handler_errors", "handler faults turned into RPC errors"),
)


def endpoint_families(endpoint, prefix: str):
    """One endpoint's stats, credits and send-buffer occupancy as metric
    families under ``prefix``, read now — bind it with
    ``functools.partial`` for :meth:`MetricsRegistry.add_collector`."""
    stats = endpoint.stats
    for field, help_text in _STATS_HELP:
        yield counter(f"{prefix}_{field}_total", help_text, getattr(stats, field))
    credits, allocator = endpoint.credits, endpoint.allocator
    yield gauge(f"{prefix}_credits", "credits available", credits.available)
    yield gauge(f"{prefix}_credits_low_watermark", "lowest credit level observed",
                credits.low_watermark)
    yield gauge(f"{prefix}_sbuf_live_blocks", "unrecycled blocks in the send buffer",
                allocator.live_count)
    yield gauge(f"{prefix}_sbuf_live_bytes", "bytes held by unrecycled blocks",
                allocator.bytes_live)


@dataclass(slots=True)
class IncomingRequest:
    """A request as the server sees it: payload referenced in place inside
    the receive buffer (zero copy).  The view is valid only until the
    handler returns — the block's memory is recycled afterwards."""

    space: AddressSpace
    method_id: int
    request_id: int
    payload_addr: int
    payload_size: int
    flags: int = Flags.NONE
    #: request trace context (repro.obs), None unless tracing is attached
    trace: object | None = None
    #: absolute deadline in overload-clock µs (0 = none); stripped from
    #: the wire word before the handler sees the payload
    deadline_us: int = 0
    #: priority lane (repro.runtime.overload LANE_*) from the same word
    lane: int = 0

    def payload_view(self) -> memoryview:
        return self.space.view(self.payload_addr, self.payload_size)

    def payload_bytes(self) -> bytes:
        return bytes(self.payload_view())


@dataclass(slots=True)
class Response:
    """What a handler returns: either raw bytes or a (size, writer) pair
    for in-place construction."""

    size: int
    writer: PayloadWriter | None = None
    data: bytes | None = None
    flags: int = Flags.NONE

    @classmethod
    def from_bytes(cls, data: bytes, flags: int = Flags.NONE) -> "Response":
        return cls(size=len(data), data=data, flags=flags)

    @classmethod
    def empty(cls) -> "Response":
        return cls(size=0, data=b"")

    def write_to(self, space: AddressSpace, addr: int) -> int:
        if self.writer is not None:
            return self.writer(space, addr)
        if self.data is not None:
            if self.data:
                space.write(addr, self.data)
            return len(self.data)
        return 0


Handler = Callable[[IncomingRequest], Response]


def _fault(exc: Exception) -> Response:
    """The one way an exception becomes an answer on an endpoint's event
    loop (docs/FAULTS.md §3): an ERROR response saying what was raised
    (the xRPC front end keeps that from its clients), marked MALFORMED
    when the class says the request's payload was at fault."""
    flags = Flags.ERROR
    if isinstance(exc, WireFormatError):
        flags |= Flags.MALFORMED
    return Response.from_bytes(repr(exc).encode(), flags)


def _fail_continuation(cont, reason: bytes, flags: int = Flags.ERROR | Flags.ABORTED) -> None:
    """Deliver a locally synthesized failure to a request continuation.
    The default, ABORTED (deadline expiry, connection reset), tells 'the
    library gave up' from a server-side ERROR response."""
    cont(memoryview(reason), flags)


class _OutBlock(NamedTuple):
    """A sealed block waiting for (or in) flight, with what its role
    noted per message (``notes``): a client request block carries its
    messages' continuations — the request IDs are allocated only at
    transmit time (§IV-D: "the client *sends* a block and flushes all
    the pending acknowledgments"), so queued blocks never hold IDs
    hostage while waiting for credits — a server response block the
    request IDs it answers."""

    sbuf_addr: int
    length: int
    message_count: int = 0
    notes: Sequence = ()
    #: trace contexts parallel to ``notes`` while tracing is attached
    traces: Sequence = ()


class _EndpointBase:
    """What both endpoint roles share: one connection's buffers,
    allocator, credits, ID pool, QP plumbing, and the send path (§IV
    defines one block format and one batching rule for both directions)."""

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        qp: QueuePair,
        recv_cq: CompletionQueue,
        sbuf: MemoryRegion,
        rbuf: MemoryRegion,
        config: ProtocolConfig,
        remote_block_alignment: int,
        recv_slots: int | None = None,
    ) -> None:
        self.name = name
        self.space = space
        self.qp = qp
        self.recv_cq = recv_cq
        self.sbuf = sbuf
        self.rbuf = rbuf
        self.config = config
        self.remote_block_alignment = remote_block_alignment
        self.stats = EndpointStats()
        #: passes a partial block may wait for more messages before it
        #: seals; 0 (the paper's event loop) seals it on every pass
        self.flush_hold = 0
        #: flush decisions by reason — one count per block sealed; shared
        #: with the engine's metrics.
        self.flush_reasons: dict[str, int] = {}
        self._polls = 0  # local pass counter: the flush hold's clock
        self._wr_ids = itertools.count(1)
        #: connection resets survived (repro.core.recovery)
        self.resets = 0
        #: duplicate block deliveries dropped by the sequence check
        self.duplicate_blocks = 0
        # Request-scoped tracing (repro.obs, docs/OBSERVABILITY.md).
        # ``trace`` stays None unless obs.attach_endpoint wires in a
        # StageRecorder; every hook below is a single is-not-None test so
        # the disabled path costs nothing.  The derived trace id is
        # (stream, serial): both sides count messages in wire order —
        # the same determinism §IV-D exploits for request IDs — so the
        # id propagates with zero wire bytes.
        self.trace = None
        self._trace_stream = ""
        self._trace_explicit = False  # client only: on-wire context word
        self._trace_serial = 0  # tx-serial (client) / rx-serial (server)
        # Pre-post one receive WQE per possible in-flight block from the
        # peer (the peer's credit limit bounds that; the factory passes it
        # in), plus slack for the repost that replenishes.
        self._recv_slots = recv_slots if recv_slots is not None else config.credits
        self._init_connection()

    def _init_connection(self) -> None:
        """Build the connection-scoped protocol state, which a transport
        reset must forget: a reset connection starts exactly like a new
        one (deterministically on both sides, so the §IV-D synchronized
        sequences restart aligned).  Each role extends it with its own."""
        self.allocator = OffsetAllocator(self.sbuf.size)
        self.credits = CreditManager(self.config.credits)
        self.id_pool = RequestIdPool(min(self.config.concurrency, 1 << 16))
        # The open block; open only while it holds a committed message.
        self._writer: BlockWriter | None = None
        self._open_since: int | None = None  # pass of its first message
        # What the role noted per message of the open block (client: the
        # continuation, server: the request ID answered), and the trace
        # contexts parallel to it while tracing is attached.
        self._open_notes: list = []
        self._writer_traces: list = []
        self._send_queue: deque[_OutBlock] = deque()
        #: out-of-band RDMA SEND payloads (bootstrap/control traffic)
        self.inbound_sends: deque[bytes] = deque()
        # Per-direction block sequence numbers (docs/FAULTS.md): _tx_seq
        # stamps outgoing preambles at transmit time; _rx_seq tracks the
        # last in-order block accepted.  Without them a silently lost or
        # duplicated block desynchronizes the mirrored §IV-D ID pools and
        # responses pair with the *wrong* continuations — undetectably.
        self._tx_seq = 0
        self._rx_seq = 0
        self._trace_by_rid: dict[int, object] = {}
        self._queued_messages = 0  # sealed into queued blocks, not yet sent
        # receive WQEs (a reset's error flush emptied the queue)
        for _ in range(self._recv_slots + 8):
            self.qp.post_recv(next(self._wr_ids))

    def reset_connection_state(self) -> None:
        """Rebuild the connection-scoped protocol state from scratch after
        a transport reset.  The QP must already be back in RTS.  Drives
        nothing itself; :class:`repro.core.recovery.ChannelRecovery`
        sequences the two sides."""
        self._init_connection()
        self.resets += 1

    # -- the send path (docs/PROTOCOL.md "Sender rules") -----------------------

    def _append(
        self, reserve: int, write: PayloadWriter, method_or_id: int, flags: int,
        note, words: tuple = (), trace_ctx=None,
    ) -> int:
        """Put one message into the open block; returns its payload size.

        ``write`` builds the payload in place and reports its true size
        (at most ``reserve``); each of ``words`` is a u64 written ahead
        of it, in order; ``note`` is what the role keeps of the message
        until its block is transmitted.  A block that cannot take the
        message goes first; one is opened when none is; one that reached
        ``block_size`` goes too, as far as credits allow.  A writer that
        raises (a malformed payload fails in the arena decoder) or
        over-reports costs exactly this message: the block is as it was,
        the error re-raised.  A block left holding nothing is given back:
        sealed empty later, it would take a credit no response can ever
        return."""
        if words:
            reserve += 8 * len(words)
        writer = self._writer
        if writer is not None and writer.end - writer.cursor < reserve + 32:
            self._send("block_full")
            writer = None
        if writer is None:
            # At least block_size, grown for a single oversized message
            # (§IV: 'the block is composed of a single message'; LARGE
            # messages add a size-extension word).
            config = self.config
            need = PREAMBLE_SIZE + 8 + 8 + 8 + reserve + 16
            capacity = max(config.block_size,
                           -(-need // config.block_alignment) * config.block_alignment)
            writer = self._writer = BlockWriter(
                self.sbuf, self._alloc_block(capacity), capacity)
        try:
            actual = writer.put_message(self.sbuf, reserve, write, method_or_id, flags, words)
        except BaseException:
            if not writer.message_count:
                self.allocator.free(writer.base - self.sbuf.base)
                self._writer = None
            raise
        self._open_notes.append(note)
        if self.trace is not None:
            traces = self._writer_traces
            missing = len(self._open_notes) - 1 - len(traces)
            if missing:
                # a recorder attached mid-block: the messages before it
                # keep their places, untraced
                traces.extend([None] * missing)
            traces.append(trace_ctx)
        if self._open_since is None:
            self._open_since = self._polls  # starts the flush hold's clock
        if writer.cursor - writer.base >= self.config.block_size:
            self._send("block_full")
        elif self._send_queue:
            self._send()
        return actual

    def _send(self, reason: str | None = None) -> None:
        """Seal the open block, counting ``reason``, when one is given;
        then transmit queued blocks, oldest first, while credits remain
        (§IV-C).  Per block, in wire order: the role's transmit-time
        bookkeeping (:meth:`_on_transmit`), ack counter and sequence
        stamped, one WRITE_WITH_IMM (:meth:`_post_block`)."""
        queue = self._send_queue
        if reason is not None:
            writer = self._writer
            self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
            traces = self._writer_traces
            count = writer.message_count
            # built as the tuple it is (a NamedTuple's __new__ is one more
            # Python-level call); stamped at transmit, outside the body CRC
            out = tuple.__new__(_OutBlock, (
                writer.base, writer.seal(), count, self._open_notes, traces or ()))
            if traces:
                self._writer_traces = []
                self._trace_seal(traces, out.length, count)
            self._open_notes = []
            self._writer = self._open_since = None
            self._queued_messages += count
            queue.append(out)
        while queue and self.credits.consume():
            out = queue.popleft()
            self._queued_messages -= out.message_count
            self._post_block(out.sbuf_addr, out.length, self._on_transmit(out))

    def _on_transmit(self, out: _OutBlock) -> int:
        """Role hook, run as a queued block leaves: what the role
        remembers about it; returns the ack counter to stamp on it."""
        raise NotImplementedError

    def _post_block(self, addr: int, length: int, ack_blocks: int) -> None:
        """Stamp the sealed block at ``addr`` — ack counter and sequence,
        both outside the body checksum, so the sealed CRC stays valid —
        and WRITE_WITH_IMM it into the peer's mirrored RBuf at the same
        offset.  Post order *is* wire order on a reliable connection, and
        every block (data, response, pure ack) leaves through here."""
        sbuf = self.sbuf
        offset = addr - sbuf.base
        self._tx_seq += 1
        stamp_transmit(sbuf.buf, offset, ack_blocks, self._tx_seq)
        self.qp.post_send(WorkRequest(
            next(self._wr_ids), Opcode.RDMA_WRITE_WITH_IMM, addr, length,
            addr,  # mirrored: same virtual address
            offset_to_bucket(offset, self.remote_block_alignment),
        ))
        self.stats.blocks_sent += 1
        self.stats.bytes_sent += length

    def _trace_seal(self, traces, length: int, count: int) -> None:
        """Record the seal of a block whose messages were traced — unless
        the recorder was detached meanwhile (``trace`` may be set to
        None at any pass)."""
        trace = self.trace
        if trace is not None:
            for ctx in traces:
                if ctx is not None:
                    trace.event(ctx, "block_seal", bytes=length, messages=count)

    def flush(self, reason: str = "explicit") -> None:
        """Force-seal a partial block, whatever its hold (§IV deadlock
        prevention; an engine's drain pushes out held batches with it)."""
        self._send(reason if self._writer is not None else None)

    @property
    def holds_open_block(self) -> bool:
        """Whether a partial block is open after the pass — one that
        ``flush_hold`` keeps waiting, for more messages, a few passes."""
        return self._writer is not None

    def _flush_by_policy(self) -> None:
        """Send the partial block once it has waited ``flush_hold``
        passes: at once with no hold (reason ``eager``), else on the
        pass the hold runs out (``deadline``)."""
        hold = self.flush_hold
        if self._polls - self._open_since >= hold:
            self._send("deadline" if hold else "eager")

    # -- block plumbing ----------------------------------------------------------

    def _alloc_block(self, capacity: int) -> int:
        """Allocate block space in the SBuf; raises AllocationError when
        the buffer is full (back-pressure)."""
        return self.sbuf.base + self.allocator.allocate(capacity, self.config.block_alignment)

    # -- the receive path ----------------------------------------------------------

    def _receive(self, limit: int | None, process) -> int:
        """One pass's receive path; returns what ``process`` (the role's
        block handler) returned, summed.  ``limit`` caps the completions
        absorbed (the engine's poll budget).  The CQ is drained first:
        each consumed receive WQE is reposted, an out-of-band SEND (ADT
        bootstrap) queued on ``inbound_sends``, a send completion skipped
        (blocks are recycled by acknowledgment, §IV-B), an error
        completion ends the connection.  Then each block is opened on our
        RBuf and handed to ``process`` before the next is opened: a
        duplicate delivery is dropped, a sequence gap raises
        :class:`TransportError` (the mirrored ID pools can never re-align
        without a reset); sequence 0 (hand-built blocks) is unchecked."""
        qp = self.qp
        if qp.state is QpState.ERROR:
            # Surface the dead connection as the typed transport fault —
            # processing completions would trip on reposting receive WQEs
            # into an errored QP with an untyped VerbsError.
            raise TransportError(self.name, "qp in ERROR state")
        buckets = []
        for wc in self.recv_cq.poll(limit or 1 << 16):
            if wc.status is not WcStatus.SUCCESS:
                raise TransportError(self.name, wc.status)
            if wc.opcode is Opcode.RECV_RDMA_WITH_IMM:
                buckets.append(wc.imm_data)
            elif wc.opcode is Opcode.RECV:
                self.inbound_sends.append(wc.payload)
            else:
                continue
            qp.post_recv(next(self._wr_ids))
        handled = 0
        for bucket in buckets:
            rbuf = self.rbuf
            base = rbuf.base + bucket_to_offset(bucket, self.config.block_alignment)
            reader = BlockReader(rbuf, base, rbuf.base + rbuf.size - base)
            preamble = reader.preamble
            seq = preamble.sequence
            if seq:
                if seq <= self._rx_seq:
                    self.duplicate_blocks += 1
                    continue
                if seq != self._rx_seq + 1:
                    raise TransportError(
                        self.name,
                        f"block sequence gap: expected {self._rx_seq + 1}, got {seq}",
                    )
                self._rx_seq = seq
            if self.config.verify_checksums:
                reader.verify_checksum()
            self.stats.blocks_received += 1
            self.stats.bytes_received += preamble.block_length
            handled += process(reader)
        return handled


class ClientEndpoint(_EndpointBase):
    """The RPC-over-RDMA *client* — runs on the DPU in the paper's
    deployment.  Enqueue requests with :meth:`enqueue` /
    :meth:`enqueue_bytes`; drive with :meth:`progress`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.timeouts = 0  # requests failed by deadline expiry
        self.late_responses = 0  # responses that arrived after their deadline
        self.replayed = 0  # requests re-sent by a connection reset
        self.aborted = 0  # requests failed by a non-replaying reset
        # Unacknowledged response blocks that warrant a pure ack (§4 of
        # docs/PROTOCOL.md): at the server's credit count it is blocked.
        self._ack_batch = min(max(4, self.config.credits // 2), self._recv_slots)
        self.backlog_failures = 0  # backlogged requests whose writer raised
        #: the first exception a continuation raised this pass, re-raised
        #: once the pass has delivered and accounted every other response
        self._raised: Exception | None = None

    def _init_connection(self) -> None:
        super()._init_connection()
        # rid -> (continuation, block_seq)
        self._pending: dict[int, tuple[Continuation, int]] = {}
        # block_seq -> [sbuf_addr, outstanding_count, rids, spent acks]
        self._blocks: dict[int, list] = {}
        self._block_seq = itertools.count()
        # Response blocks processed but not yet acknowledged: their
        # answered request IDs, in processing order (freed at the next
        # transmit, §IV-D step 1).
        self._unacked_response_ids: deque[list[int]] = deque()
        # Requests beyond the concurrency window wait here (§IV-D bounds
        # live request IDs to the pool size; the app may enqueue freely).
        self._backlog: deque[tuple] = deque()
        # SBuf addresses of pure-ack blocks sent since the last request
        # block.  Nothing answers a pure ack, and its send completion only
        # says the wire took it, not that the server read it — reusing
        # the space then could overwrite it unread in the mirrored RBuf.
        # It is recycled with the next request block instead: blocks are
        # consumed in order, so an answer to that one proves it was read.
        self._spent_acks: list[int] = []
        # Deadline tracking (config.request_deadline_ticks): entries are
        # (expiry_poll, rid, block_seq) in transmit order, so expiry is
        # monotone and the scan is O(expired).  block_seq disambiguates a
        # recycled rid: a stale entry whose rid now names a younger
        # request fails the seq comparison and is dropped.
        self._deadlines: deque[tuple[int, int, int]] = deque()
        # Requests failed locally (deadline expiry) whose ID is still live
        # in the synchronized pools: the late response, if it ever comes,
        # is absorbed for protocol accounting but its continuation — long
        # since fired with a typed error — is skipped.
        self._tombstones: set[int] = set()

    # -- enqueue ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests awaiting a response (sent or not yet transmitted)."""
        return len(self._pending) + len(self._open_notes) + self._queued_messages

    def enqueue_bytes(
        self, method_id: int, payload: bytes, continuation: Continuation,
        flags: int = Flags.NONE, trace_ctx=None, deadline: int = 0,
    ) -> None:
        def writer(space, addr: int) -> int:
            if payload:
                space.write(addr, payload)
            return len(payload)

        self.enqueue(method_id, len(payload), writer, continuation, flags,
                     trace_ctx=trace_ctx, deadline=deadline)

    def enqueue(
        self,
        method_id: int,
        max_payload: int,
        writer: PayloadWriter,
        continuation: Continuation,
        flags: int = Flags.NONE,
        trace_ctx=None,
        deadline: int = 0,
    ) -> None:
        """Queue one request.  ``writer`` constructs the payload in place
        inside the outgoing block (this is where the offloaded
        deserializer writes the C++ object).  ``continuation`` fires when
        the response arrives (§III-D).  ``trace_ctx`` carries an upper
        layer's trace context through to the wire stages (repro.obs); a
        fresh one is created here when tracing is on and none was given.
        ``deadline`` is a packed overload word
        (:func:`repro.runtime.overload.pack_deadline`): non-zero spends 8
        bytes ahead of the payload so every downstream stage can drop the
        request once its absolute deadline passes (docs/OVERLOAD.md)."""
        if max_payload > self.config.max_message_size:
            raise MessageTooLarge(
                f"payload of {max_payload} exceeds max_message_size "
                f"{self.config.max_message_size}"
            )
        if self.trace is not None:
            if trace_ctx is None:
                trace_ctx = self.trace.context()
            self.trace.event(trace_ctx, "enqueue", method=method_id,
                             bytes=max_payload)
        if self._backlog or (
            len(self._pending) + len(self._open_notes) + self._queued_messages
            >= self.id_pool.capacity
        ):
            # Concurrency window full (the ID pool *is* the window, §IV-D):
            # defer, preserving FIFO order.
            self._backlog.append((method_id, max_payload, writer, continuation,
                                  flags, trace_ctx, deadline))
        else:
            self._enqueue_now(method_id, max_payload, writer, continuation,
                              flags, trace_ctx, deadline)

    def _enqueue_now(
        self,
        method_id: int,
        max_payload: int,
        writer: PayloadWriter,
        continuation: Continuation,
        flags: int,
        trace_ctx=None,
        deadline: int = 0,
    ) -> None:
        # Wire layout [trace word][deadline word][payload], each word
        # announced by its flag (stripped in _process_request_block).
        words: tuple = ()
        if (
            self._trace_explicit
            and self.trace is not None
            and not flags & Flags.TRACE_CTX
        ):
            # Explicit-context mode: bind the trace id now and spend 8
            # bytes to carry it (the only mode that keeps replayed/retried
            # requests correlated).
            word = self.trace.collector.next_context_word()
            if trace_ctx is not None and trace_ctx.tid is None:
                trace_ctx.tid = ("ctx", word)
            words = (word,)
            flags |= Flags.TRACE_CTX
        if deadline and not flags & Flags.DEADLINE:
            # Deadline propagation: the absolute deadline + lane, for
            # every downstream stage.
            words += (deadline,)
            flags |= Flags.DEADLINE
        self._append(max_payload, writer, method_id, flags, continuation, words,
                     trace_ctx)
        self.stats.requests_sent += 1

    def _flush_pending_acks(self) -> int:
        """§IV-D step 1: free the request IDs answered by every response
        block we are about to acknowledge; returns the ack count."""
        ack_blocks = len(self._unacked_response_ids)
        while self._unacked_response_ids:
            self.id_pool.free_many(self._unacked_response_ids.popleft())
        return ack_blocks

    def _on_transmit(self, out: _OutBlock) -> int:
        """Send-time bookkeeping, mirrored verbatim by the server on
        receipt: flush acks, then allocate this block's request IDs — a
        request block carried its messages' continuations until now.
        Returns the ack count the block's preamble carries."""
        ack_blocks = self._flush_pending_acks()
        ids = self.id_pool.allocate_many(out.message_count)
        seq = next(self._block_seq)
        self._blocks[seq] = [out.sbuf_addr, len(ids), ids, self._spent_acks]
        self._spent_acks = []
        pending = self._pending
        for rid, cont in zip(ids, out.notes):
            pending[rid] = (cont, seq)
        deadline = self.config.request_deadline_ticks
        if deadline:
            expiry = self._polls + deadline
            self._deadlines.extend((expiry, rid, seq) for rid in ids)
        if self.trace is not None:
            # Transmit time is where the derived trace id binds: both
            # sides count wire-order messages, so the client's n-th
            # transmitted message is the server's n-th received one
            # (same determinism as the §IV-D ID pools).  Events recorded
            # before this point reference the context and pick the id up
            # retroactively.  ``out.traces`` may stop short of the block's
            # end (the recorder was detached after its traced messages).
            serial = self._trace_serial
            self._trace_serial += len(ids)
            for rid, ctx in zip(ids, out.traces):
                serial += 1
                if ctx is None:
                    continue
                if ctx.tid is None:
                    ctx.tid = (self._trace_stream, serial)
                self.trace.event(ctx, "transmit", rid=rid, seq=seq)
                self._trace_by_rid[rid] = ctx
        return ack_blocks

    def _send_pure_ack(self) -> None:
        """Emit a zero-message block that only carries the preamble ack
        counter.  It consumes no credit (it cannot be answered, so it
        could never replenish one) — this is what breaks the mutual
        credit-starvation cycle when both sides are at zero.  Its SBuf
        block recycles with the next request block (``_spent_acks``)."""
        try:
            addr = self._alloc_block(self.config.block_alignment)
        except AllocationError:
            return  # SBuf exhausted; retry next pass
        length = BlockWriter(self.sbuf, addr, self.config.block_alignment).seal()
        self._post_block(addr, length, self._flush_pending_acks())
        self._spent_acks.append(addr)

    # -- event loop -----------------------------------------------------------------

    def pending(self) -> bool:
        """Whether this endpoint still holds undelivered work (used by
        :meth:`ProgressEngine.drain`)."""
        return bool(self.outstanding or self._send_queue or self._backlog)

    def _expire_deadlines(self) -> None:
        """Fail requests whose deadline passed (§IV-D keeps their IDs
        allocated: the ID is only freed when the response block arrives,
        or the connection resets — freeing early would desynchronize the
        mirrored pools)."""
        while self._deadlines and self._deadlines[0][0] <= self._polls:
            _, rid, seq = self._deadlines.popleft()
            entry = self._pending.get(rid)
            if entry is None or entry[1] != seq or rid in self._tombstones:
                continue  # answered in time (rid may even be reused by now)
            cont, _ = entry
            self._tombstones.add(rid)
            self.timeouts += 1
            if self.trace is not None:
                ctx = self._trace_by_rid.get(rid)
                if ctx is not None:
                    self.trace.event(ctx, "timeout", rid=rid)
            _fail_continuation(cont, b"request deadline exceeded")

    def progress(self, budget: int | None = None) -> int:
        """One event-loop pass: flush a partial block whose hold ran out,
        then process arrived response blocks (at most ``budget``
        completions).  Returns the number of responses delivered; if a
        continuation raised, the pass still finishes and its first
        exception is raised at the end."""
        self._polls += 1
        if self._deadlines:
            self._expire_deadlines()
        if self._writer is not None:
            self._flush_by_policy()
        if self._send_queue:
            self._send()
        delivered = self._receive(budget, self._process_response_block)
        if self._backlog:
            self._drain_backlog()
        if self._send_queue:
            self._send()
        # Two reasons to push acknowledgments out of band: we are credit-
        # starved with blocks waiting (deadlock breaker), or acks piled up
        # while we had nothing to send (lets the server recycle memory —
        # and send at all, once they hold every credit it has: each
        # unacknowledged response block keeps one of the server's).
        if self._unacked_response_ids and (
            (self._send_queue and not self.credits.can_send())
            or len(self._unacked_response_ids) >= self._ack_batch
        ):
            self._send_pure_ack()
        if self._raised is not None:
            raised, self._raised = self._raised, None
            raise raised
        return delivered

    def _drain_backlog(self) -> None:
        """Admit deferred requests as the concurrency window reopens.
        A failing writer has no caller to raise to in here, so that one
        request is failed through its continuation — with the answer a
        handler's fault gets — and the rest is admitted all the same."""
        admitted = False
        while self._backlog and self.outstanding < self.id_pool.capacity:
            entry = self._backlog.popleft()
            try:
                self._enqueue_now(*entry)
            except Exception as exc:  # noqa: BLE001 — the event loop keeps running
                self.backlog_failures += 1
                fault = _fault(exc)
                self._fail_backlogged(entry, fault.data, fault.flags)
                continue
            admitted = True
        if admitted and self._writer is not None:
            # Ship what we admitted so the window keeps moving even while
            # a backlog remains (window progress, not the hold's decision).
            self._send("backlog")

    def _fail_backlogged(self, entry: tuple, reason: bytes,
                         flags: int = Flags.ERROR | Flags.ABORTED) -> None:
        """Fail a request that never left the backlog (it holds no ID)."""
        if self.trace is not None and entry[5] is not None:
            self.trace.event(entry[5], "abort")
        _fail_continuation(entry[3], reason, flags)

    def _process_response_block(self, reader: BlockReader) -> int:
        pending, blocks, tombstones = self._pending, self._blocks, self._tombstones
        rbuf, trace = self.rbuf, self.trace
        answered: list[int] = []
        for rid, flags, payload_addr, payload_size in reader.records():
            try:
                cont, seq = pending.pop(rid)
            except KeyError:
                raise ProtocolError(f"{self.name}: response for unknown request {rid}")
            if trace is not None:
                ctx = self._trace_by_rid.pop(rid, None)
                if ctx is not None:
                    trace.event(
                        ctx, "response_deliver", rid=rid,
                        flags=flags, bytes=payload_size,
                        late=rid in tombstones,
                    )
            if tombstones and rid in tombstones:
                # Late answer to a request already failed by its deadline:
                # the continuation fired long ago; keep only the protocol
                # accounting so IDs, acks, and credits stay synchronized.
                tombstones.discard(rid)
                self.late_responses += 1
            else:
                try:
                    cont(rbuf.view(payload_addr, payload_size), flags)
                except Exception as exc:  # noqa: BLE001 — re-raised at the end of the pass
                    if self._raised is None:
                        self._raised = exc
            answered.append(rid)
            block = blocks[seq]
            block[1] -= 1
            if block[1] == 0:
                # Every request in that block is answered: recycle the
                # request block (and the pure acks sent before it) and its
                # credit (§IV-B server-side implicit ack, observed
                # client-side).
                del blocks[seq]
                free, sbuf_base = self.allocator.free, self.sbuf.base
                free(block[0] - sbuf_base)
                for addr in block[3]:
                    free(addr - sbuf_base)
                self.credits.replenish(1)
        # Remember the IDs to free at the next seal, and count the block
        # toward the preamble ack counter.
        self._unacked_response_ids.append(answered)
        self.stats.responses_received += len(answered)
        return len(answered)

    # -- connection reset --------------------------------------------------------

    def _snapshot_unanswered(self) -> list[tuple[int, bytes, Continuation, int]]:
        """Copy every unanswered request — in flight, queued, or still in
        the open block — out of the SBuf before the allocator is rebuilt.
        Returned in original submission order as (method_id, payload,
        continuation, flags) tuples ready for re-enqueueing."""
        survivors: list[tuple[int, bytes, Continuation, int]] = []
        # LARGE is recomputed by the writer on re-send; TRACE_CTX (and its
        # 8-byte word) is stripped so the replay gets a *fresh* context
        # word instead of double-prepending the old one.
        strip = Flags.LARGE | Flags.TRACE_CTX

        def harvest(addr: int, conts, rids=None) -> None:
            reader = BlockReader(
                self.space, addr, self.sbuf.base + self.sbuf.size - addr
            )
            for i, msg in enumerate(reader.messages()):
                if rids is not None:
                    rid = rids[i]
                    if rid not in self._pending or rid in self._tombstones:
                        continue  # answered, or already failed by deadline
                    cont = self._pending[rid][0]
                else:
                    cont = conts[i]
                payload = bytes(self.space.view(msg.payload_addr, msg.payload_size))
                if msg.header.flags & Flags.TRACE_CTX:
                    payload = payload[8:]
                survivors.append(
                    (msg.header.method_or_id, payload, cont, msg.header.flags & ~strip)
                )

        for seq in sorted(self._blocks):
            addr, _, rids, _ = self._blocks[seq]
            harvest(addr, None, rids)
        for out in self._send_queue:
            harvest(out.sbuf_addr, out.notes)
        writer = self._writer
        if writer is not None:
            # sealed, counted and traced like any seal; read in place
            self.flush_reasons["reset"] = self.flush_reasons.get("reset", 0) + 1
            self._trace_seal(self._writer_traces, writer.seal(), writer.message_count)
            harvest(writer.base, self._open_notes)
        return survivors

    def begin_reset(self) -> tuple[list, list]:
        """Phase one of a reset: snapshot every unanswered request, then
        tear down and rebuild this side's connection state.  Returns the
        snapshot for :meth:`finish_reset`.  Between the two phases both
        sides are quiescent — the window where
        :meth:`repro.core.recovery.ChannelRecovery.verify_invariants`
        can prove the mirrored pools re-aligned."""
        survivors, backlog = self._snapshot_unanswered(), self._backlog
        if self.trace is not None:
            for ctx in self._trace_by_rid.values():
                self.trace.event(ctx, "reset")
        super().reset_connection_state()
        return survivors, backlog

    def finish_reset(self, snapshot: tuple[list, list], replay: bool = True) -> int:
        """Phase two: with ``replay`` (the default) every snapshotted
        request is re-submitted through the fresh connection in original
        submission order; otherwise all are failed with
        ``Flags.ERROR | Flags.ABORTED``.  Requests already failed by
        their deadline were dropped at snapshot time — continuations fire
        exactly once.  Returns the number replayed or aborted."""
        survivors, backlog = snapshot
        if replay:
            for method_id, payload, cont, flags in survivors:
                # enqueue_bytes spills past-window requests to the (empty)
                # new backlog itself, preserving submission order.
                self.enqueue_bytes(method_id, payload, cont, flags)
            self._backlog.extend(backlog)
            self.replayed += len(survivors)
            return len(survivors)
        for _, _, cont, _ in survivors:
            _fail_continuation(cont, b"connection reset")
        for entry in backlog:
            self._fail_backlogged(entry, b"connection reset")
        self.aborted += len(survivors) + len(backlog)
        return len(survivors) + len(backlog)

    def reset_connection_state(self, replay: bool = True) -> int:
        """One-shot reset: :meth:`begin_reset` + :meth:`finish_reset`."""
        return self.finish_reset(self.begin_reset(), replay)


class ServerEndpoint(_EndpointBase):
    """The RPC-over-RDMA *server* — the host.  Register callbacks with
    :meth:`register`; drive with :meth:`progress` (§III-D)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._handlers: dict[int, Handler] = {}
        #: requests dropped because their deadline had already passed,
        #: by the stage that dropped them (docs/OVERLOAD.md)
        self.deadline_expired = {"host_dispatch": 0, "response_emit": 0}

    def _init_connection(self) -> None:
        """A reset drops every half-built or outstanding response: the
        client replays the requests, so the answers are regenerated."""
        super()._init_connection()
        # Outstanding response blocks in send order: (sbuf_addr, answered ids)
        self._outstanding_responses: deque[tuple[int, list[int]]] = deque()
        # rid -> absolute deadline (µs) for requests that carried a
        # deadline word, so the response-emit stage can drop late answers
        self._deadline_by_rid: dict[int, int] = {}

    def register(self, method_id: int, handler: Handler) -> None:
        """Register the callback for a procedure ID (§III-D)."""
        if method_id in self._handlers:
            raise ProtocolError(f"method {method_id} already registered")
        self._handlers[method_id] = handler

    # -- event loop -------------------------------------------------------------------

    def pending(self) -> bool:
        """Whether responses are still queued or being built (used by
        :meth:`ProgressEngine.drain`)."""
        return bool(self._send_queue or self._writer is not None)

    def progress(self, budget: int | None = None) -> int:
        """One event-loop pass: process arrived request blocks (at most
        ``budget`` completions), running each handler to completion in
        the polling thread, then flush responses whose hold ran out.
        Returns the number of requests handled."""
        self._polls += 1
        handled = self._receive(budget, self._process_request_block)
        if self._writer is not None:
            self._flush_by_policy()
        if self._send_queue:
            self._send()
        return handled

    def _process_request_block(self, reader: BlockReader) -> int:
        # Replay the client's two-step ID bookkeeping (§IV-D).
        acked = reader.preamble.ack_blocks
        if acked > len(self._outstanding_responses):
            raise ProtocolError(
                f"{self.name}: client acked {acked} response blocks, "
                f"only {len(self._outstanding_responses)} outstanding"
            )
        for _ in range(acked):
            sbuf_addr, ids = self._outstanding_responses.popleft()
            self.id_pool.free_many(ids)
            self.allocator.free(sbuf_addr - self.sbuf.base)
            self.credits.replenish(1)

        messages = reader.records()
        ids = self.id_pool.allocate_many(len(messages))
        self.stats.requests_received += len(messages)
        space, rbuf, trace = self.space, self.rbuf, self.trace
        for rid, (method_id, flags, payload_addr, payload_size) in zip(ids, messages):
            word = deadline_us = lane = 0
            if flags & (Flags.TRACE_CTX | Flags.DEADLINE):
                # Undo _enqueue_now's prefix words, in wire order: the
                # client opted in, whether or not this side traces or sheds.
                if flags & Flags.TRACE_CTX:
                    word = rbuf.read_u64(payload_addr)
                    payload_addr += 8
                    payload_size -= 8
                if flags & Flags.DEADLINE:
                    deadline_us, lane = unpack_deadline(rbuf.read_u64(payload_addr))
                    payload_addr += 8
                    payload_size -= 8
                flags &= ~(Flags.TRACE_CTX | Flags.DEADLINE)
            ctx = None
            if trace is not None:
                # rx-serial mirrors the client's tx-serial (wire order on
                # a reliable connection); the explicit word, when present,
                # wins so replayed requests still correlate.
                self._trace_serial += 1
                tid = ("ctx", word) if word else (
                    self._trace_stream, self._trace_serial
                )
                ctx = trace.context()
                ctx.tid = tid
                trace.event(ctx, "deliver", rid=rid, method=method_id,
                            bytes=payload_size)
                self._trace_by_rid[rid] = ctx
            request = IncomingRequest(space, method_id, rid, payload_addr,
                                      payload_size, flags, ctx, deadline_us, lane)
            if deadline_us:
                if now_us() >= deadline_us:
                    # Expired on arrival: answer without invoking the
                    # handler — no decode, no dispatch work.
                    if ctx is not None:
                        trace.event(ctx, "deadline_expired",
                                    stage="host_dispatch", rid=rid)
                    self._enqueue_response(rid, self._expired("host_dispatch"))
                    continue
                self._deadline_by_rid[rid] = deadline_us
            if ctx is not None:
                t0 = trace.now()
            response = self._invoke(request)
            if ctx is not None:
                trace.event(ctx, "dispatch", ts=t0, dur=trace.now() - t0,
                            method=method_id, flags=response.flags)
            self._enqueue_response(rid, response)
        return len(messages)

    def _invoke(self, request: IncomingRequest) -> Response:
        """The host loop's boundary (docs/FAULTS.md §3): resolve the
        handler and run it in the polling thread.
        A fault — an unknown method is one — ends with its request: the
        one ERROR response, counted; the block's rest is dispatched."""
        try:
            handler = self._handlers.get(request.method_id)
            if handler is None:
                raise LookupError(f"unknown method {request.method_id}")
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — handler faults become RPC errors
            self.stats.handler_errors += 1
            return _fault(exc)

    # -- response path -------------------------------------------------------------------

    def _expired(self, stage: str) -> Response:
        """The small marker that answers a request whose deadline passed
        at ``stage``, counted there (docs/OVERLOAD.md)."""
        self.deadline_expired[stage] += 1
        return Response.from_bytes(
            f"stage={stage}".encode(), flags=Flags.ERROR | Flags.EXPIRED
        )

    def _enqueue_response(self, rid: int, response: Response) -> None:
        if self._deadline_by_rid:
            deadline_us = self._deadline_by_rid.pop(rid, 0)
            if (
                deadline_us
                and not response.flags & Flags.EXPIRED
                and now_us() >= deadline_us
            ):
                # The handler ran but the client's deadline passed
                # meanwhile: emitting the full response would be wasted wire.
                response = self._expired("response_emit")
        try:
            actual = self._append(response.size, response.writer or response.write_to,
                                  rid, response.flags, rid)
        except Exception as exc:  # noqa: BLE001 — _invoke's contract, for in-place writers
            if response.writer is None:
                raise  # plain bytes always write: no block was to be had
            # The handler's fault ends with this request, not with the
            # rest of the block being dispatched.
            self.stats.handler_errors += 1
            self._enqueue_response(rid, _fault(exc))
            return
        if self.trace is not None:
            ctx = self._trace_by_rid.pop(rid, None)
            if ctx is not None:
                self.trace.event(ctx, "response_emit", rid=rid,
                                 bytes=actual, flags=response.flags)
        self.stats.responses_sent += 1

    def _on_transmit(self, out: _OutBlock) -> int:
        """A response block is remembered with the request IDs it
        answers until the client acknowledges it (§IV-B); it carries no
        acknowledgments."""
        self._outstanding_responses.append((out.sbuf_addr, out.notes))
        return 0
