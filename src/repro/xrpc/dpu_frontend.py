"""The DPU front end and the host compatibility layer (paper §III-A, §V-D).

``OffloadedXrpcServer`` is the xRPC server that now runs *on the DPU*: it
terminates client connections and hands each unary request's payload to
the :class:`~repro.offload.engine.DpuEngine`, which deserializes it into
the outgoing protocol block; the host's response comes back serialized
(as in the paper's prototype) and is reframed for the client, who only
changed the server address.

``register_offloaded_servicer`` is the host-side compatibility layer: an
application servicer written for the normal xRPC server runs unmodified
on the zero-copy :class:`~repro.offload.materialize.CppMessageView`
(every field reads as on a parsed message — same values and defaults,
``AttributeError`` for a name that is not a field — but read-only) and a
``None`` context ("we use a null pointer for simplicity").
"""

from __future__ import annotations

from functools import partial

from repro.core import Flags
from repro.offload.engine import DpuEngine, EngineCrashedError, HostEngine
from repro.proto.descriptor import ServiceDescriptor
from repro.proto.fixed_wire import service_types

from .framing import StatusCode, append_response
from .ingress import Ingress, _Connection, outcome
from .service import assign_method_ids, build_dispatch_table, method_path
from .transport import Network

__all__ = ["OffloadedXrpcServer", "register_offloaded_servicer"]


class OffloadedXrpcServer(Ingress):
    """xRPC termination on the DPU, bridged to RPC over RDMA: the shared
    front door (:class:`~repro.xrpc.ingress.Ingress`) with a
    :class:`~repro.offload.engine.DpuEngine` behind it."""

    EXPIRED_STAGE = "dpu_ingress"
    SHED_STAGE = "dpu_admission"
    #: always 0; read by benchmarks/e2e/layers.py::counters
    breaker_fallbacks = 0

    def __init__(
        self,
        network: Network | None,
        address: str,
        dpu: DpuEngine,
        service: ServiceDescriptor,
    ) -> None:
        super().__init__(network, address)
        self.dpu = dpu
        self.service = service
        self._method_ids = assign_method_ids(service)
        self.requests_forwarded = 0
        self.responses_returned = 0
        #: requests served through the degraded path (DPU engine down →
        #: wire bytes forwarded for host-side deserialization)
        self.fallback_requests = 0

    def _registered_types(self) -> list:
        # The front end hashes the same service schema the client did.
        return service_types(self.service)

    def _serve(self, conn: _Connection, frame, lane: int) -> None:
        """What follows the lanes here: an admitted request is served by
        forwarding it.  A payload the DPU's decoder rejects raises out of
        ``dpu.call``; the front door answers it (docs/FAULTS.md §3)."""
        _, call_id, _, method, payload, wire_mode, deadline_word = frame
        method_id = self._method_ids.get(method)
        if method_id is None:
            self._respond(conn, call_id, StatusCode.UNIMPLEMENTED, b"")
            return
        self.requests_forwarded += 1
        ctx = None
        if self.trace is not None:
            ctx = self.trace.context(method=method, call_id=call_id, lane=lane)
            self.trace.event(ctx, "ingress", bytes=len(payload))
        dpu = self.dpu
        on_response = partial(self._reply, conn, call_id, ctx)
        # Graceful degradation (docs/FAULTS.md): with the DPU engine down —
        # or freshly respawned and still awaiting its bootstrap blob —
        # keep serving by shipping wire bytes for host-side
        # deserialization: slower, never unavailable.
        if dpu.ready:
            forward = dpu.call
        else:
            self.fallback_requests += 1
            forward = dpu.call_raw
        try:
            forward(method_id, payload, on_response, ctx, wire_mode, deadline_word)
        except EngineCrashedError:
            # Crash raced the check: same degradation, same request.
            self.fallback_requests += 1
            dpu.call_raw(method_id, payload, on_response, trace_ctx=ctx,
                         wire_mode=wire_mode, deadline=deadline_word)

    def _reply(self, conn: _Connection, call_id: int, ctx, view: memoryview,
               flags: int) -> None:
        """A request's continuation, bound by ``_serve``: the host's
        response is already serialized protobuf, which the DPU only
        reframes (§III-A), copied once from the block into the frame."""
        self.responses_returned += 1
        status = StatusCode.OK
        if flags & Flags.ERROR:
            # The datapath answered with a failure: the outcome table's
            # other half says which, and whether the record's payload is
            # the client's to read.
            status, crosses = outcome(flags)
            self.request_faults[status] += 1
            if not crosses:
                view = b""
        if ctx is not None and self.trace is not None:
            self.trace.event(ctx, "respond", status=int(status), flags=flags, bytes=len(view))
        if conn.alive:
            append_response(conn.out, call_id, status, view)
        else:
            self.replies_dropped += 1


def register_offloaded_servicer(
    host: HostEngine,
    service: ServiceDescriptor,
    servicer: object,
) -> None:
    """Host side of the compatibility layer: plug an ordinary servicer
    into the offload engine.  Its methods run on already-deserialized
    objects; no request parsing happens on the host.  Their response
    Messages are serialized here, on the host (§III-A)."""
    table = build_dispatch_table(service, servicer)
    ids = assign_method_ids(service)
    for m in service.methods:
        path = method_path(service, m)
        host.register_method(
            ids[path],
            m.input_type.full_name,
            table[path].handler,  # (it passes the servicer no context)
            name=path,
        )
