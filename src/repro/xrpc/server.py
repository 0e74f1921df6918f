"""The baseline (non-offloaded) xRPC server.

This is the traditional deployment the paper compares against: the host
terminates client connections itself and its CPU performs framing,
**protobuf deserialization**, business-logic dispatch, and response
serialization.  The deserialization census is recorded so the datapath
benchmarks can charge the host CPU for exactly the work the DPU absorbs
in the offloaded configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.proto import Message, MessageFactory, WireFormatError, parse, prepare_emit
from repro.proto.descriptor import ServiceDescriptor
from repro.proto.fixed_wire import (
    WIRE_FIXED,
    get_fixed_layout,
    negotiation_hash,
)
from repro.runtime.overload import deadline_expired, now_us

from .framing import (
    FrameDecoder,
    FrameType,
    StatusCode,
    encode_overload_detail,
    encode_response,
    encode_setup_ack,
    response_frame_size,
    write_response_header,
)
from .service import MethodBinding, build_dispatch_table
from .transport import Listener, Network, SimSocket

__all__ = ["XrpcServer", "ServerStats"]


@dataclass
class ServerStats:
    requests: int = 0
    responses: int = 0
    errors: int = 0
    request_bytes: int = 0
    response_bytes: int = 0


@dataclass
class _Connection:
    socket: SimSocket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)


class XrpcServer:
    """Single-threaded, poll-driven unary-RPC server."""

    def __init__(
        self,
        network: Network,
        address: str,
        factory: MessageFactory,
        decode_mode: str | None = None,
        encode_mode: str | None = None,
        layout_salt: str = "",
    ) -> None:
        self.address = address
        self.listener: Listener = network.listen(address)
        self.factory = factory
        #: Request-deserialization path: ``"generated"`` (also what
        #: ``None`` means) or ``"interpretive"``
        #: (see repro.proto.deserializer).
        self.decode_mode = decode_mode
        #: Perturbs this server's fixed-layout negotiation hash; any
        #: non-empty value makes every SETUP offer mismatch (the fault
        #: campaign's forced-fallback knob, docs/FAULTS.md).
        self.layout_salt = layout_salt
        #: WIRE_FIXED negotiations answered (match, mismatch) — observability
        self.setup_matches = 0
        self.setup_mismatches = 0
        #: Response-serialization path, same convention
        #: (see repro.proto.serializer).
        self.encode_mode = encode_mode
        self._methods: dict[str, MethodBinding] = {}
        self._connections: list[_Connection] = []
        self.stats = ServerStats()
        #: AdmissionController (repro.runtime.overload) — None admits
        #: everything with zero overhead (docs/OVERLOAD.md)
        self.admission = None
        #: requests dropped expired-on-arrival, before any decode work
        self.deadline_expired = {"dispatch": 0}
        # Two priority lanes of decoded-but-unserved requests:
        # (conn, frame, arrival_us).  The latency lane always drains
        # first; with budget=None both drain fully every pass, so the
        # lanes only reorder under an explicit per-pass budget.
        self._lanes = (deque(), deque())
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None

    def add_service(self, service: ServiceDescriptor, servicer: object) -> None:
        """Register a servicer (the generated-code
        ``add_XServicer_to_server`` analog)."""
        table = build_dispatch_table(service, servicer)
        overlap = table.keys() & self._methods.keys()
        if overlap:
            raise ValueError(f"methods already registered: {sorted(overlap)}")
        self._methods.update(table)

    # -- event loop -----------------------------------------------------------

    def poll(self) -> int:
        """Deprecation shim for the historical name; the server is a
        :class:`~repro.runtime.pollable.Pollable` driven via
        :meth:`progress`."""
        return self.progress()

    def progress(self, budget: int | None = None) -> int:
        """Accept connections and serve buffered requests; returns the
        number of requests handled this pass.  Registerable with a
        :class:`~repro.runtime.engine.ProgressEngine`; ``budget`` caps
        the requests *served* in one pass (overload drops and sheds are
        cheap and never charged against it) — unserved requests stay in
        their priority lane for the next pass."""
        while True:
            sock = self.listener.accept()
            if sock is None:
                break
            self._connections.append(_Connection(sock))
        for conn in self._connections:
            data = conn.socket.recv(1 << 20)
            if data:
                conn.decoder.feed(data)
            for frame in conn.decoder.frames():
                if frame.frame_type is FrameType.SETUP:
                    self._answer_setup(conn, frame.method)
                elif frame.frame_type is FrameType.REQUEST:
                    lane = frame.deadline_word & 1
                    stamp = (
                        now_us()
                        if self.admission is not None or frame.deadline_word
                        else 0
                    )
                    self._lanes[lane].append((conn, frame, stamp))
        handled = 0
        for lane, queue in enumerate(self._lanes):
            while queue and (budget is None or handled < budget):
                conn, frame, arrival = queue.popleft()
                if conn.socket.eof():
                    continue  # client gone; a reply would be dropped anyway
                if self._drop_or_shed(conn, frame, lane, arrival):
                    continue
                handled += 1
                self._serve(
                    conn, frame.call_id, frame.method, frame.message,
                    frame.wire_mode,
                )
        self._connections = [c for c in self._connections if not c.socket.eof()]
        return handled

    def _drop_or_shed(self, conn: _Connection, frame, lane: int,
                      arrival: int) -> bool:
        """Overload checks ahead of any decode work: expired-on-arrival
        requests are dropped, then the admission controller may shed.
        Returns True when the request was answered without serving."""
        word = frame.deadline_word
        if word and deadline_expired(word):
            self.deadline_expired["dispatch"] += 1
            if self.trace is not None:
                self.trace.instant("deadline_expired", stage="dispatch",
                                   call_id=frame.call_id)
            self._respond(conn, frame.call_id, StatusCode.DEADLINE_EXCEEDED,
                          encode_overload_detail("dispatch"))
            return True
        if self.admission is None:
            return False
        now = now_us()
        self.admission.note_sojourn(now - arrival, now)
        depth = 1 + sum(len(q) for q in self._lanes)
        decision = self.admission.decide(lane, depth, now)
        if decision.admit:
            return False
        if self.trace is not None:
            self.trace.instant("shed", lane=lane, call_id=frame.call_id,
                               reason=decision.reason)
        self._respond(
            conn, frame.call_id, StatusCode.RESOURCE_EXHAUSTED,
            encode_overload_detail("dispatch", decision.retry_after_ticks),
        )
        return True

    def _answer_setup(self, conn: _Connection, offered_hash: str) -> None:
        """WIRE_FIXED negotiation: compare the client's layout hash with
        our own over every registered request/response type.  Stateless —
        the answer only informs the *client*; each frame carries its wire
        mode, so the server never needs per-connection mode state."""
        mine = negotiation_hash(self._registered_types(), self.layout_salt)
        if offered_hash == mine:
            self.setup_matches += 1
            conn.socket.send(encode_setup_ack(StatusCode.OK))
        else:
            self.setup_mismatches += 1
            conn.socket.send(encode_setup_ack(StatusCode.INVALID_ARGUMENT))
        if self.trace is not None:
            self.trace.instant("wire_fixed_setup", match=offered_hash == mine)

    def _registered_types(self) -> list:
        seen: dict[str, object] = {}
        for binding in self._methods.values():
            for desc in (binding.method.input_type, binding.method.output_type):
                seen.setdefault(desc.full_name, desc)
        return [seen[k] for k in sorted(seen)]

    def _serve(
        self, conn: _Connection, call_id: int, method: str, payload: bytes,
        wire_mode: int = 0,
    ) -> None:
        self.stats.requests += 1
        self.stats.request_bytes += len(payload)
        trace = self.trace
        ctx = None
        if trace is not None:
            ctx = trace.context(method=method, call_id=call_id)
            ctx.tid = ("xrpc-srv", call_id)
            trace.event(ctx, "ingress", bytes=len(payload))
        binding = self._methods.get(method)
        if binding is None:
            self._respond(conn, call_id, StatusCode.UNIMPLEMENTED, b"")
            return
        request_cls = self.factory.get_class(binding.method.input_type)
        fixed = wire_mode == WIRE_FIXED
        mode = "fixed" if fixed else (self.decode_mode or "default")

        def _parse_request():
            if fixed:
                layout = get_fixed_layout(binding.method.input_type, self.factory)
                if layout is None:
                    raise WireFormatError(
                        f"{binding.method.input_type.full_name} cannot ride fixed wire"
                    )
                return layout.parse(request_cls, payload)
            return parse(request_cls, payload, mode=self.decode_mode)

        try:
            # The host-CPU deserialization the offload eliminates:
            if trace is not None:
                t0 = trace.now()
                request = _parse_request()
                trace.event(ctx, "deserialize", ts=t0, dur=trace.now() - t0,
                            bytes=len(payload), mode=mode)
            else:
                request = _parse_request()
        except WireFormatError:
            self._respond(conn, call_id, StatusCode.INVALID_ARGUMENT, b"")
            return
        try:
            if trace is not None:
                t0 = trace.now()
                response = binding.handler(request, None)
                trace.event(ctx, "dispatch", ts=t0, dur=trace.now() - t0,
                            method=method)
            else:
                response = binding.handler(request, None)
        except Exception:  # noqa: BLE001 — servicer faults become INTERNAL
            self._respond(conn, call_id, StatusCode.INTERNAL, b"")
            return
        if not isinstance(response, Message) or (
            response.DESCRIPTOR.full_name != binding.method.output_type.full_name
        ):
            self._respond(conn, call_id, StatusCode.INTERNAL, b"")
            return
        self._respond_message(conn, call_id, response, fixed)
        if trace is not None:
            trace.event(ctx, "respond", status=int(StatusCode.OK))

    def _respond_message(
        self, conn: _Connection, call_id: int, response: Message,
        request_was_fixed: bool = False,
    ) -> None:
        """OK response: size the message, build the frame in one buffer,
        emit the payload in place after the header (zero intermediate
        full-payload ``bytes``).

        A request that arrived on fixed wire gets a fixed-wire response
        when the response type (and this instance) supports it — the
        client negotiated the layout, so no per-connection state is
        needed to answer in kind."""
        sized = None
        wire_mode = 0
        if request_was_fixed:
            layout = get_fixed_layout(response.DESCRIPTOR, self.factory)
            if layout is not None:
                sized = layout.measure(response)
                if sized is not None:
                    wire_mode = WIRE_FIXED
        if sized is None:
            sized = prepare_emit(response, mode=self.encode_mode)
        self.stats.responses += 1
        self.stats.response_bytes += sized.size
        frame = bytearray(response_frame_size(sized.size))
        payload_at = write_response_header(
            frame, call_id, StatusCode.OK, sized.size, wire_mode
        )
        sized.emit_into(frame, payload_at)
        conn.socket.send(frame)

    def _respond(self, conn: _Connection, call_id: int, status: int, message: bytes) -> None:
        if status == StatusCode.OK:
            self.stats.responses += 1
        else:
            self.stats.errors += 1
        self.stats.response_bytes += len(message)
        conn.socket.send(encode_response(call_id, status, message))
