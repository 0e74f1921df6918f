"""xRPC client channel.

The client side of the xRPC substrate: frames unary requests, matches
responses to calls by call id, and fires continuations.  From the xRPC
client's perspective nothing changes when the server moves to the DPU —
only the target address does (§III-A: "The only configuration change is
to modify the xRPC server address").
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.proto import Message, parse, prepare_emit
from repro.proto.fixed_wire import (
    WIRE_FIXED,
    WIRE_STANDARD,
    measure_fixed,
    negotiation_hash,
    service_types,
)
from repro.runtime.overload import LANE_LATENCY, RetryBudget, now_us, pack_deadline

from .framing import (
    FrameDecoder,
    FrameType,
    StatusCode,
    encode_setup,
    parse_overload_detail,
    request_frame_size,
    write_request_header,
)
from .transport import Network, SimSocket

__all__ = [
    "RpcError",
    "RpcTimeoutError",
    "RpcTransportError",
    "RpcResourceExhaustedError",
    "RetryPolicy",
    "XrpcChannel",
]


class RpcError(RuntimeError):
    """A call completed with a non-OK status."""

    def __init__(self, status: int, detail: str = "") -> None:
        super().__init__(f"rpc failed with status {status}: {detail}")
        self.status = status
        self.detail = detail


class RpcTimeoutError(RpcError):
    """The call's deadline passed.  ``stage`` names where: ``"client"``
    when no response arrived within the local iteration budget (the
    pending-call entry is cleaned up before this is raised — a response
    that straggles in later is dropped by :meth:`XrpcChannel.poll`
    instead of firing a dead callback), or the server-side stage that
    dropped the expired request (``dpu_ingress``, ``host_dispatch``,
    ``response_emit``, ``dispatch``) when the propagated deadline
    expired in the datapath (docs/OVERLOAD.md)."""

    def __init__(self, method: str, iterations: int, stage: str = "client") -> None:
        detail = (
            f"no response to {method} after {iterations} iterations"
            if stage == "client"
            else f"{method} deadline expired at {stage}"
        )
        super().__init__(StatusCode.DEADLINE_EXCEEDED, detail)
        self.method = method
        self.iterations = iterations
        self.stage = stage


class RpcTransportError(RpcError):
    """The connection under the call failed (the datapath aborted it, or
    the server became unreachable) — retryable for idempotent methods."""

    def __init__(self, detail: str = "") -> None:
        super().__init__(StatusCode.UNAVAILABLE, detail)


class RpcResourceExhaustedError(RpcError):
    """The server's admission controller shed the call before executing
    it (docs/OVERLOAD.md).  Always retryable — even for non-idempotent
    methods, since a shed request never ran — subject to the channel's
    retry budget; ``retry_after_ticks`` is the server's backoff hint in
    drive iterations."""

    def __init__(self, method: str, stage: str = "",
                 retry_after_ticks: int = 0) -> None:
        super().__init__(
            StatusCode.RESOURCE_EXHAUSTED,
            f"{method} shed at {stage or 'server'}"
            f" (retry after {retry_after_ticks} ticks)",
        )
        self.method = method
        self.stage = stage
        self.retry_after_ticks = retry_after_ticks


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered capped exponential backoff.

    Attempt *n* (0-based) waits up to ``ceiling = min(base_iters * 2**n,
    cap_iters)`` drive iterations before re-sending.  With ``jitter``
    (the default) and an ``rng``, the wait is drawn uniformly from
    ``[1, ceiling]`` ("full jitter"): clients that failed together retry
    *spread out* instead of in synchronized bursts that re-overload the
    server the moment it recovers.  Without an rng (or with
    ``jitter=False``) the wait is the deterministic ceiling — the
    pre-overload-control behavior.

    Only timeouts, transport failures, and admission sheds are retried —
    application-level statuses never are.  Timeouts and transport
    failures additionally require the caller to mark the call
    idempotent, since a timed-out request may still execute on the
    server; sheds never executed, so they are always retryable."""

    max_retries: int = 3
    base_iters: int = 64
    cap_iters: int = 4096
    jitter: bool = True

    def backoff(self, attempt: int, rng: random.Random | None = None) -> int:
        ceiling = min(self.base_iters * (1 << attempt), self.cap_iters)
        if rng is None or not self.jitter:
            return ceiling
        return 1 + rng.randrange(ceiling)


class XrpcChannel:
    """One client connection to an xRPC server address."""

    def __init__(
        self,
        network: Network | None,
        address: str,
        name: str = "xrpc-client",
        encode_mode: str | None = None,
        socket: SimSocket | None = None,
    ) -> None:
        """``socket`` bypasses the network registry with a pre-established
        stream (a :class:`~repro.xrpc.transport.StreamSocket` over an OS
        socketpair in the multiprocess deployments); ``network`` may then
        be None."""
        self.address = address
        if socket is not None:
            self.socket: SimSocket = socket
        else:
            if network is None:
                raise ValueError("XrpcChannel needs a network or an explicit socket")
            self.socket = network.connect(address, name)
        #: Request-serialization path: ``"generated"`` (also what ``None``
        #: means) or ``"interpretive"`` (see repro.proto.serializer).
        self.encode_mode = encode_mode
        #: True once :meth:`negotiate_fixed` succeeded: eligible requests
        #: ride the branchless fixed-layout wire (docs/PROTOCOL.md).
        self.wire_fixed = False
        self._setup_result: list[int] = []
        self._decoder = FrameDecoder()
        self._call_ids = itertools.count(1, 2)  # odd ids, like HTTP/2 client streams
        # call_id -> (response class, callback)
        self._pending: dict[int, tuple[type[Message], Callable]] = {}
        #: hook the caller uses to advance the rest of the simulated world
        #: while waiting synchronously (the server must run somewhere).
        self.drive: Callable[[], None] | None = None
        #: backoff schedule used by call_sync for idempotent retries
        self.retry_policy = RetryPolicy()
        #: token bucket bounding retry amplification (docs/OVERLOAD.md);
        #: exhausted budget means the last error propagates un-retried
        self.retry_budget = RetryBudget()
        # Deterministic per-channel jitter stream: crc32 of the channel
        # name (hash() is salted per process, crc32 is not), so runs are
        # reproducible while distinct channels still de-synchronize.
        self._retry_rng = random.Random(zlib.crc32(name.encode()) or 1)
        #: relative deadline stamped on every call when the caller gives
        #: none (0 = no deadline); see :meth:`call`
        self.default_timeout_us = 0
        #: priority lane for calls that don't specify one
        self.default_lane = LANE_LATENCY
        # -- failure statistics ----------------------------------------------
        self.timeouts = 0
        self.retries = 0
        self.transport_errors = 0
        #: calls shed by server admission control (RESOURCE_EXHAUSTED)
        self.sheds = 0
        #: detail bytes of the most recent non-OK response frame, for the
        #: error-callback path (callbacks only receive (None, status))
        self.last_error_detail = b""
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None
        self._trace_by_call: dict[int, object] = {}

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    # -- wire-mode negotiation ------------------------------------------------

    def negotiate_fixed(self, service, salt: str = "", max_iters: int = 10_000) -> bool:
        """Offer the server this client's fixed-layout hash over the
        service's request/response types.  On a matching SETUP_ACK the
        connection switches eligible messages to WIRE_FIXED; on mismatch
        (or no answer within ``max_iters`` drive iterations) it stays on
        standard wire.  Requires :attr:`drive`, like :meth:`call_sync`.

        ``salt`` perturbs the hash — the fault-injection knob that forces
        a negotiation mismatch without touching the schema."""
        if self.drive is None:
            raise RuntimeError("negotiate_fixed needs channel.drive to advance the server")
        h = negotiation_hash(service_types(service), salt)
        self._setup_result.clear()
        self.socket.send(encode_setup(h))
        for _ in range(max_iters):
            self.drive()
            self.poll()
            if self._setup_result:
                self.wire_fixed = self._setup_result[0] == StatusCode.OK
                if self.trace is not None:
                    self.trace.instant("wire_fixed_negotiated",
                                       enabled=self.wire_fixed)
                return self.wire_fixed
        return False

    def disable_fixed(self) -> None:
        """Drop back to standard wire mid-connection (fault injection and
        operator override).  Per-frame wire modes make this safe at any
        point: in-flight fixed frames still parse on the server."""
        self.wire_fixed = False

    def call(
        self,
        method: str,
        request: Message,
        response_cls: type[Message],
        callback: Callable[[Message | None, int], None],
        timeout_us: int | None = None,
        lane: int | None = None,
    ) -> int:
        """Start a unary call; ``callback(response, status)`` fires on
        completion (response is None unless status == OK).

        ``timeout_us`` (or the channel's ``default_timeout_us``) stamps
        an absolute deadline word into the request frame: every datapath
        stage drops the request once the deadline passes instead of
        doing further work on it.  ``lane`` rides in the same word and
        classifies the request for admission control (docs/OVERLOAD.md).
        """
        call_id = next(self._call_ids)
        if timeout_us is None:
            timeout_us = self.default_timeout_us
        if lane is None:
            lane = self.default_lane
        deadline_word = 0
        if timeout_us:
            deadline_word = pack_deadline(now_us() + timeout_us, lane)
        elif lane != LANE_LATENCY:
            # No deadline, but the lane still matters to admission
            # control: a packed deadline of 0 means "never expires", so
            # the word costs 8 bytes and carries only the lane bit.
            deadline_word = pack_deadline(0, lane)
        self._pending[call_id] = (response_cls, callback)
        if self.trace is not None:
            # The client's view of the call is its own small timeline —
            # the datapath behind the server address stitches by the
            # derived (stream, serial) id instead, which this side cannot
            # observe.  ("xrpc", call_id) keeps the two correlatable by
            # the call_id attribute the front end records on ingress.
            ctx = self.trace.context(method=method, call_id=call_id)
            ctx.tid = ("xrpc", call_id)
            self.trace.event(ctx, "xrpc_send", method=method)
            self._trace_by_call[call_id] = ctx
        # Zero-copy framing: size the message first, build the frame in
        # one buffer, and have the encoder emit the wire bytes in place
        # after the header — no intermediate serialized `bytes`.
        sized = measure_fixed(request) if self.wire_fixed else None
        wire_mode = WIRE_STANDARD if sized is None else WIRE_FIXED
        if sized is None:
            sized = prepare_emit(request, mode=self.encode_mode)
        m = method.encode("utf-8")
        frame = bytearray(
            request_frame_size(len(m), sized.size, deadline=bool(deadline_word))
        )
        payload_at = write_request_header(frame, call_id, m, sized.size,
                                          wire_mode, deadline_word)
        sized.emit_into(frame, payload_at)
        self.socket.send(frame)
        return call_id

    def cancel(self, call_id: int) -> bool:
        """Forget a pending call; its callback will never fire and a late
        response frame is silently dropped.  Returns whether the id was
        still pending."""
        self._trace_by_call.pop(call_id, None)
        return self._pending.pop(call_id, None) is not None

    def call_sync(
        self,
        method: str,
        request: Message,
        response_cls: type[Message],
        max_iters: int = 100_000,
        idempotent: bool = False,
        timeout_us: int | None = None,
        lane: int | None = None,
    ) -> Message:
        """Synchronous unary call.  Requires :attr:`drive` so the server
        (and the DPU/host datapath behind it) can make progress.

        Failure semantics: no response within ``max_iters`` raises
        :class:`RpcTimeoutError` (after cleaning up the pending call);
        UNAVAILABLE/ABORTED statuses raise :class:`RpcTransportError`;
        admission sheds raise :class:`RpcResourceExhaustedError`; a
        propagated deadline (``timeout_us``) that expires in the
        datapath raises :class:`RpcTimeoutError` with the dropping
        stage.

        Retry hygiene (docs/OVERLOAD.md): retries wait per
        :attr:`retry_policy` — jittered capped exponential backoff,
        never less than the server's retry-after hint — and each retry
        spends a :attr:`retry_budget` token; an exhausted budget
        propagates the last error immediately.  Client-side timeouts and
        transport failures retry only with ``idempotent=True`` (a
        timed-out request may still execute server-side); admission
        sheds always may (they never executed); server-observed deadline
        expiry never retries (the caller's deadline has passed)."""
        if self.drive is None:
            raise RuntimeError("call_sync needs channel.drive to advance the server")
        attempts = self.retry_policy.max_retries + 1
        for attempt in range(attempts):
            try:
                response = self._call_sync_once(
                    method, request, response_cls, max_iters, timeout_us, lane
                )
                self.retry_budget.on_success()
                return response
            except (RpcTimeoutError, RpcTransportError,
                    RpcResourceExhaustedError) as exc:
                if (
                    attempt == attempts - 1
                    or not self._retryable(exc, idempotent)
                    or not self.retry_budget.try_spend()
                ):
                    raise
                self.retries += 1
                if self.trace is not None:
                    self.trace.instant("retry", method=method,
                                       attempt=attempt + 1, status=exc.status)
                hint = getattr(exc, "retry_after_ticks", 0)
                wait = max(self.retry_policy.backoff(attempt, self._retry_rng),
                           hint)
                for _ in range(wait):
                    self.drive()
                    self.poll()
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _retryable(exc: RpcError, idempotent: bool) -> bool:
        if isinstance(exc, RpcResourceExhaustedError):
            return True  # shed before execution: safe for any method
        if isinstance(exc, RpcTimeoutError):
            # Only the *local* iteration budget is worth retrying; a
            # datapath-reported expiry means the caller's deadline passed.
            return idempotent and exc.stage == "client"
        return idempotent  # RpcTransportError

    def _call_sync_once(
        self,
        method: str,
        request: Message,
        response_cls: type[Message],
        max_iters: int,
        timeout_us: int | None = None,
        lane: int | None = None,
    ) -> Message:
        result: list = []

        def done(response: Message | None, status: int) -> None:
            result.append((response, status, self.last_error_detail))

        call_id = self.call(method, request, response_cls, done,
                            timeout_us=timeout_us, lane=lane)
        for _ in range(max_iters):
            self.drive()
            self.poll()
            if result:
                response, status, detail = result[0]
                if status in (StatusCode.UNAVAILABLE, StatusCode.ABORTED):
                    self.transport_errors += 1
                    raise RpcTransportError(f"{method}: status {status}")
                if status == StatusCode.RESOURCE_EXHAUSTED:
                    self.sheds += 1
                    stage, retry_after = parse_overload_detail(detail)
                    raise RpcResourceExhaustedError(method, stage, retry_after)
                if status == StatusCode.DEADLINE_EXCEEDED:
                    self.timeouts += 1
                    stage, _ = parse_overload_detail(detail)
                    raise RpcTimeoutError(method, 0, stage=stage or "server")
                if status != StatusCode.OK:
                    raise RpcError(status, repr(response))
                return response
        self.cancel(call_id)
        self.timeouts += 1
        raise RpcTimeoutError(method, max_iters)

    def pending(self) -> bool:
        return bool(self._pending)

    def progress(self, budget: int | None = None) -> int:
        """Pollable-protocol alias for :meth:`poll`, so a channel can
        register with a :class:`~repro.runtime.engine.ProgressEngine`."""
        return self.poll()

    def poll(self) -> int:
        """Process inbound frames; returns completed-call count."""
        data = self.socket.recv(1 << 20)
        if data:
            self._decoder.feed(data)
        completed = 0
        for frame in self._decoder.frames():
            if frame.frame_type is FrameType.SETUP_ACK:
                self._setup_result.append(frame.status)
                continue
            if frame.frame_type is not FrameType.RESPONSE:
                continue  # a server would not send requests; ignore
            entry = self._pending.pop(frame.call_id, None)
            if entry is None:
                self._trace_by_call.pop(frame.call_id, None)
                continue  # response to a cancelled/unknown call
            response_cls, callback = entry
            if self.trace is not None:
                ctx = self._trace_by_call.pop(frame.call_id, None)
                if ctx is not None:
                    self.trace.event(ctx, "xrpc_complete", status=frame.status,
                                     bytes=len(frame.message),
                                     wire_mode=frame.wire_mode)
            if frame.status == StatusCode.OK:
                if frame.wire_mode != WIRE_STANDARD:
                    # Responses are standard protobuf on every deployment
                    # (WIRE_FIXED carries requests only): a server fault.
                    callback(None, StatusCode.INTERNAL)
                else:
                    callback(parse(response_cls, frame.message), StatusCode.OK)
            else:
                # Callbacks only see (None, status); stash the frame's
                # detail bytes (shed stage, retry-after hint) so callers
                # that need them can read last_error_detail synchronously.
                self.last_error_detail = frame.message
                callback(None, frame.status)
            completed += 1
        return completed

    def close(self) -> None:
        self.socket.close()
