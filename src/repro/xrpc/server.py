"""The baseline (non-offloaded) xRPC server.

This is the traditional deployment the paper compares against: the host
terminates client connections itself and its CPU performs framing,
**protobuf deserialization**, business-logic dispatch, and response
serialization.  The deserialization census is recorded so the datapath
benchmarks can charge the host CPU for exactly the work the DPU absorbs
in the offloaded configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.proto import Message, MessageFactory, parse, prepare_emit
from repro.proto.descriptor import ServiceDescriptor
from repro.proto.fixed_wire import WIRE_FIXED, WIRE_STANDARD, measure_fixed, parse_fixed

from .framing import StatusCode, append_response
from .ingress import Ingress, _Connection
from .service import MethodBinding, build_dispatch_table
from .transport import Network

__all__ = ["XrpcServer", "ServerStats"]


@dataclass
class ServerStats:
    requests: int = 0
    responses: int = 0
    errors: int = 0


class XrpcServer(Ingress):
    """The shared front door (:class:`~repro.xrpc.ingress.Ingress`) with
    the host's own CPU behind it: parse, dispatch, serialize."""

    def __init__(
        self,
        network: Network,
        address: str,
        factory: MessageFactory,
        decode_mode: str | None = None,
        encode_mode: str | None = None,
        layout_salt: str = "",
    ) -> None:
        super().__init__(network, address, layout_salt)
        self.factory = factory
        #: Request-deserialization path: ``"generated"`` (also what
        #: ``None`` means) or ``"interpretive"``
        #: (see repro.proto.deserializer).
        self.decode_mode = decode_mode
        #: Response-serialization path, same convention
        #: (see repro.proto.serializer).
        self.encode_mode = encode_mode
        self._methods: dict[str, MethodBinding] = {}
        self.stats = ServerStats()

    def add_service(self, service: ServiceDescriptor, servicer: object) -> None:
        """Register a servicer (the generated-code
        ``add_XServicer_to_server`` analog)."""
        table = build_dispatch_table(service, servicer)
        overlap = table.keys() & self._methods.keys()
        if overlap:
            raise ValueError(f"methods already registered: {sorted(overlap)}")
        self._methods.update(table)

    def _registered_types(self) -> list:
        seen: dict[str, object] = {}
        for binding in self._methods.values():
            for desc in (binding.method.input_type, binding.method.output_type):
                seen.setdefault(desc.full_name, desc)
        return [seen[k] for k in sorted(seen)]

    def _serve(self, conn: _Connection, frame, lane: int) -> None:
        """Serve in place; the lane has done its work by now.  Parse,
        dispatch, serialize — whichever raises, the front door answers
        (docs/FAULTS.md §3)."""
        call_id, method, payload = frame.call_id, frame.method, frame.message
        self.stats.requests += 1
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
        fixed = frame.wire_mode == WIRE_FIXED
        t0 = trace.now() if trace is not None else 0
        # The host-CPU deserialization the offload eliminates:
        if fixed:
            request = parse_fixed(request_cls, payload)
        else:
            request = parse(request_cls, payload, mode=self.decode_mode)
        if trace is not None:
            trace.event(ctx, "deserialize", ts=t0, dur=trace.now() - t0, bytes=len(payload),
                        mode="fixed" if fixed else (self.decode_mode or "default"))
            t0 = trace.now()
        response = binding.handler(request)
        if trace is not None:
            trace.event(ctx, "dispatch", ts=t0, dur=trace.now() - t0, method=method)
        self._respond_message(conn, call_id, response, fixed)
        if trace is not None:
            trace.event(ctx, "respond", status=int(StatusCode.OK))

    def _respond_message(
        self, conn: _Connection, call_id: int, response: Message,
        request_was_fixed: bool = False,
    ) -> None:
        """OK response: size the message, reserve its frame at the tail
        of the connection's pending output, emit the payload in place
        after the header (zero intermediate full-payload ``bytes``).  An
        emit that raises leaves the frame half built; the front door
        takes it back.

        A request that arrived on fixed wire gets a fixed-wire response
        when the response type (and this instance) supports it — the
        client negotiated the layout, so no per-connection state is
        needed to answer in kind."""
        sized = measure_fixed(response) if request_was_fixed else None
        wire_mode = WIRE_STANDARD if sized is None else WIRE_FIXED
        if sized is None:
            # The module global, looked up per call: the benchmark's traced
            # pass patches it (docs/TRANSPORT.md, "what the benchmark patches").
            sized = prepare_emit(response, mode=self.encode_mode)
        out = conn.out
        append_response(out, call_id, StatusCode.OK, bytes(sized.size), wire_mode)
        sized.emit_into(out, len(out) - sized.size)
        self.stats.responses += 1

    def _respond(self, conn: _Connection, call_id: int, status: int, message: bytes) -> None:
        self.stats.errors += 1  # (an OK answer is a message: _respond_message)
        super()._respond(conn, call_id, status, message)
