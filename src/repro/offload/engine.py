"""The offload engines: DPU-side and host-side halves of Figure 1's
host/DPU connection.

``HostEngine`` (host):

* owns the :class:`~repro.offload.adt.TypeUniverse` (vtables + default
  instances in host globals memory) and builds/encodes the ADT;
* registers business-logic callbacks that receive the request as a
  zero-copy :class:`~repro.offload.materialize.CppMessageView` — the
  object was fully constructed by the DPU, no deserialization happens
  here;
* serializes every response on the host, as the paper's prototype does
  (§III-A): responses cross the PCIe as wire bytes the DPU only reframes.

``DpuEngine`` (DPU):

* receives the bootstrap blob (ADT + method table + ABI note) once at
  startup (§V-B), checks every index in it, and instantiates the
  :class:`~repro.offload.arena_deserializer.ArenaDeserializer` from it;
* for each xRPC request, deserializes the protobuf payload **directly
  into the outgoing protocol block** (the arena *is* the payload) and
  enqueues it, so the host receives a ready C++ object at a shared
  virtual address.

``create_offload_pair`` wires both over one RPC-over-RDMA channel and
performs the startup handshake: binary-compatibility check (§V-A), ADT
transfer over an RDMA SEND, method-table agreement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.abi import AbiConfig, check_compatibility
from repro.core import (
    Channel,
    Flags,
    IncomingRequest,
    ProtocolConfig,
    Response,
    create_channel,
)
from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS
from repro.memory import Arena
from repro.proto import (
    DECODE_MODES,
    CompiledSchema,
    Message,
    emit_writer,
    parse,
)
from repro.proto.descriptor import MessageDescriptor
from repro.proto.fixed_wire import WIRE_FIXED, parse_fixed
from repro.rdma import Opcode, WorkRequest

from .adt import Adt, AdtError, BlobReader, TypeUniverse, decode_adt, encode_adt
from .arena_deserializer import ArenaDeserializer, DeserializeStats
from .materialize import CppMessageView, view_class

__all__ = [
    "MethodSpec",
    "EngineCrashedError",
    "HostEngine",
    "DpuEngine",
    "OffloadPair",
    "bootstrap",
    "create_offload_pair",
    "encode_bootstrap",
    "decode_bootstrap",
]


class EngineCrashedError(RuntimeError):
    """The DPU deserialization engine is down (injected crash or real
    fault).  Callers that can degrade — the xRPC front end — catch this
    and fail over to :meth:`DpuEngine.call_raw`, shipping wire bytes for
    *host-side* deserialization instead of refusing service."""


@dataclass(frozen=True)
class MethodSpec:
    """One offloadable procedure: numeric ID, name, input message type.
    Its response crosses as wire bytes the host serialized (§III-A)."""

    method_id: int
    name: str
    input_type: str  # full message type name


# ---------------------------------------------------------------------------
# Bootstrap blob: ADT + method table
# ---------------------------------------------------------------------------

_BOOT_MAGIC = b"BOOT"


def encode_bootstrap(adt: Adt, methods: list[MethodSpec]) -> bytes:
    out = bytearray(_BOOT_MAGIC)
    adt_bytes = encode_adt(adt)
    out += struct.pack("<I", len(adt_bytes))
    out += adt_bytes
    out += struct.pack("<H", len(methods))
    by_name = {e.full_name: i for i, e in enumerate(adt.entries)}
    for m in methods:
        name = m.name.encode()
        out += struct.pack("<Hh", m.method_id, by_name[m.input_type])
        out += struct.pack("<H", len(name)) + name
    return bytes(out)


def decode_bootstrap(data: bytes) -> tuple[Adt, dict[int, int], dict[int, str]]:
    """Returns (adt, method_id -> input entry index, method_id -> name).
    The DPU trusts the table from here on, so any blob that is not one
    :func:`encode_bootstrap` wrote raises :class:`AdtError` now."""
    blob = BlobReader(data)
    if blob.take(4) != _BOOT_MAGIC:
        raise AdtError("bad bootstrap magic")
    (adt_len,) = blob.unpack("<I")
    adt = decode_adt(blob.take(adt_len))
    (n,) = blob.unpack("<H")
    table: dict[int, int] = {}
    names: dict[int, str] = {}
    for _ in range(n):
        mid, entry_idx = blob.unpack("<Hh")
        names[mid] = blob.text()
        if not 0 <= entry_idx < len(adt.entries):
            raise AdtError(f"method {mid}: input index {entry_idx} is not an ADT entry")
        table[mid] = entry_idx
    blob.done()
    return adt, table, names


# ---------------------------------------------------------------------------
# Host side
# ---------------------------------------------------------------------------

#: Host business-logic callback: receives the zero-copy view of the
#: already-deserialized request; returns the response Message (serialized
#: on the host) or raw bytes.
HostCallback = Callable[[CppMessageView, IncomingRequest], "Message | bytes | Response"]


class HostEngine:
    """Host half: compatibility layer feeding ready objects to callbacks."""

    def __init__(
        self,
        channel: Channel,
        schema: CompiledSchema,
        abi: AbiConfig | None = None,
    ) -> None:
        self.channel = channel
        self.schema = schema
        self.universe = TypeUniverse(channel.server_space, abi)
        self.methods: list[MethodSpec] = []
        self._input_descriptors: dict[int, MessageDescriptor] = {}
        #: requests that arrived as wire bytes (Flags.WIRE_PAYLOAD) and
        #: were deserialized *here* — the degraded mode that keeps the
        #: service alive while the DPU engine is down.
        self.host_deserialized = 0
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None

    def register_method(self, method_id: int, input_type: str, callback: HostCallback,
                        name: str | None = None) -> None:
        """Register business logic for ``method_id``.  The wrapper converts
        the incoming block payload address into a typed view — the entire
        'deserialization' the host performs."""
        desc = self.schema.pool.message(input_type)
        self.methods.append(MethodSpec(method_id, name or f"m{method_id}", input_type))
        self._input_descriptors[method_id] = desc
        universe = self.universe
        layout = universe.layouts.layout(desc)
        view_cls = view_class(universe, layout)
        input_cls = self.schema.factory.get_class(desc)

        def handler(request: IncomingRequest) -> Response:
            degraded = request.flags & Flags.WIRE_PAYLOAD
            if degraded:
                # Failover path: the DPU engine is down, the payload is
                # raw protobuf (or, with FIXED_PAYLOAD, the negotiated
                # fixed layout).  Deserialize here — a field reads the same
                # on the parsed Message as on the view, so the business
                # callback runs unchanged.  (What the parser
                # rejects, the endpoint's boundary answers ERROR | MALFORMED.)
                self.host_deserialized += 1
                if request.flags & Flags.FIXED_PAYLOAD:
                    view = parse_fixed(input_cls, request.payload_bytes())
                else:
                    view = parse(input_cls, request.payload_bytes())
            else:
                view = view_cls(universe, layout, request.payload_addr)
            trace = self.trace if request.trace is not None else None
            t0 = trace.now() if trace is not None else 0
            result = callback(view, request)
            if trace is not None:
                trace.event(request.trace, "callback", ts=t0, dur=trace.now() - t0,
                            method=method_id, degraded=bool(degraded))
            if isinstance(result, Message):
                # Host-side response serialization, but zero-copy: the
                # encoder sizes the message, the endpoint reserves
                # that space in the response block, and the wire bytes
                # are emitted there directly (no intermediate bytes).
                size, writer = emit_writer(result)
                return Response(size, writer)
            if isinstance(result, Response):
                return result
            return Response.from_bytes(result)

        self.channel.server.register(method_id, handler)

    def bootstrap_bytes(self) -> bytes:
        """Encode the ADT + method table, built over every registered
        input type (transmitted once, §V-B)."""
        roots = [self._input_descriptors[m.method_id] for m in self.methods]
        adt = self.universe.build_adt(roots)
        return encode_bootstrap(adt, self.methods)

    def send_bootstrap(self) -> None:
        """Ship the bootstrap blob to the DPU over an RDMA SEND (consumes
        one of the DPU's pre-posted receive WQEs)."""
        data = self.bootstrap_bytes()
        server = self.channel.server
        staging = server.allocator.allocate(len(data), 8)
        addr = server.sbuf.base + staging
        server.space.write(addr, data)
        server.qp.post_send(
            WorkRequest(wr_id=0xB007, opcode=Opcode.SEND, local_addr=addr, length=len(data))
        )
        server.allocator.free(staging)

    def progress(self, budget: int | None = None) -> int:
        return self.channel.server.progress(budget)


# ---------------------------------------------------------------------------
# DPU side
# ---------------------------------------------------------------------------


class DpuEngine:
    """DPU half: turns serialized protobuf requests into in-block C++
    objects and ships them over the protocol."""

    def __init__(
        self,
        channel: Channel,
        abi: AbiConfig | None = None,
        decode_mode: str = "generated",
    ) -> None:
        if decode_mode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {decode_mode!r}")
        self.channel = channel
        self.abi = abi or AbiConfig()
        #: Arena decode tier the deserializer is built with: "generated"
        #: compiles one straight-line decoder per ADT entry,
        #: "interpretive" keeps the field-by-field oracle.
        self.decode_mode = decode_mode
        self.adt: Adt | None = None
        self.method_table: dict[int, int] = {}
        self.method_names: dict[int, str] = {}
        self.deserializer: ArenaDeserializer | None = None
        self.stats = DeserializeStats()
        #: crash simulation (docs/FAULTS.md): while set, :meth:`call`
        #: raises EngineCrashedError; the transport underneath stays up,
        #: so :meth:`call_raw` keeps working.
        self.crashed = False
        self.crash_reason = ""
        self.crashes = 0
        self.fallback_calls = 0
        #: Can :meth:`call` succeed right now?  Not while crashed or before
        #: the bootstrap blob arrives: :meth:`call_raw` serves until then.
        self.ready = False
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None

    # -- bootstrap -------------------------------------------------------------

    def receive_bootstrap(self, max_polls: int = 1000) -> None:
        """Wait for the host's bootstrap SEND and build the deserializer.

        In a one-sided channel the peer is in another process, so nothing
        advances the fabric for us between polls — pump it here so the
        doorbell carrying the SEND can land."""
        client = self.channel.client
        fabric = self.channel.fabric
        pump_fabric = self.channel.server is None and hasattr(fabric, "progress")
        for _ in range(max_polls):
            if pump_fabric:
                fabric.progress()
            client.progress()
            if client.inbound_sends:
                data = client.inbound_sends.popleft()
                self._install_bootstrap(bytes(data))
                return
        raise AdtError("bootstrap blob never arrived")

    def _install_bootstrap(self, data: bytes) -> None:
        adt, table, names = decode_bootstrap(data)
        self.adt = adt
        self.method_table = table
        self.method_names = names
        self.deserializer = ArenaDeserializer(adt, self.stats, mode=self.decode_mode)
        self.ready = not self.crashed

    # -- crash simulation --------------------------------------------------------

    def crash(self, reason: str = "injected") -> None:
        """Take the deserialization engine down (the DPU-engine-crash
        fault).  Idempotent; the channel underneath is untouched."""
        if not self.crashed:
            self.crashed = True
            self.ready = False
            self.crashes += 1
            if self.trace is not None:
                self.trace.instant("engine_crash", reason=reason)
        self.crash_reason = reason

    def revive(self) -> None:
        """Bring the engine back (simulating a restart; the bootstrap
        state survives, as a real restart would re-receive it)."""
        if self.crashed and self.trace is not None:
            self.trace.instant("engine_revive")
        self.crashed = False
        self.ready = self.deserializer is not None
        self.crash_reason = ""

    # -- datapath ----------------------------------------------------------------

    def call_raw(
        self,
        method_id: int,
        wire_bytes: bytes,
        on_response: Callable[[memoryview, int], None],
        trace_ctx=None,
        wire_mode: int = 0,
        deadline: int = 0,
    ) -> None:
        """Degraded-mode request: ship the serialized payload as-is with
        ``Flags.WIRE_PAYLOAD`` so the *host* deserializes it.  This is
        the pre-offload baseline datapath, kept alive as the failover
        target — it needs no deserializer and works while crashed.

        ``wire_mode`` tags WIRE_FIXED payloads with
        ``Flags.FIXED_PAYLOAD`` so the host's degraded parser decodes the
        fixed layout instead of standard wire."""
        self.fallback_calls += 1
        if self.trace is not None and trace_ctx is not None:
            trace_ctx.mark(degraded=True)
            self.trace.event(trace_ctx, "failover", method=method_id,
                             crashed=self.crashed)
        flags = Flags.WIRE_PAYLOAD
        if wire_mode == WIRE_FIXED:
            flags |= Flags.FIXED_PAYLOAD
        self.channel.client.enqueue_bytes(method_id, wire_bytes, on_response, flags,
                                          trace_ctx=trace_ctx, deadline=deadline)

    def call(
        self,
        method_id: int,
        wire_bytes: bytes,
        on_response: Callable[[memoryview, int], None],
        trace_ctx=None,
        wire_mode: int = 0,
        deadline: int = 0,
    ) -> None:
        """Offload one request: deserialize ``wire_bytes`` straight into
        the outgoing block and enqueue it.  ``wire_mode`` = WIRE_FIXED
        routes the payload through the branchless fixed-layout arena
        decoder instead of the tag-dispatch one."""
        if self.crashed:
            raise EngineCrashedError(f"dpu engine crashed: {self.crash_reason}")
        deserializer = self.deserializer
        if deserializer is None:
            raise AdtError("bootstrap not received yet")
        try:
            root = self.method_table[method_id]
        except KeyError:
            raise AdtError(f"method {method_id} not in the offload table") from None
        fixed = wire_mode == WIRE_FIXED
        if fixed:
            estimate = deserializer.estimate_size_fixed(root, wire_bytes)
            decode = deserializer.deserialize_fixed
        else:
            estimate = deserializer.estimate_size(root, wire_bytes)
            decode = deserializer.deserialize
        trace = self.trace
        if trace is not None and trace_ctx is None:
            trace_ctx = trace.context()

        def writer(space, addr: int) -> int:
            # One resolution per request: everything the decoder writes
            # lies in [addr, addr + estimate), inside this one region.
            arena = Arena(space.region_of(addr, estimate), addr, estimate)
            # The offloaded stage itself: wire bytes -> in-block C++ object,
            # timed from inside the block writer so the span covers exactly
            # the arena deserialization.
            t0 = trace.now() if trace is not None else 0
            obj = decode(root, wire_bytes, arena)
            if trace is not None:
                trace.event(trace_ctx, "deserialize", ts=t0,
                            dur=trace.now() - t0, bytes=len(wire_bytes),
                            object=arena.used,
                            mode="fixed" if fixed else deserializer.mode)
            if obj != addr:
                raise AdtError("root object must sit at the payload start")
            return arena.used

        self.channel.client.enqueue(
            method_id, estimate, writer, on_response, Flags.NONE, trace_ctx, deadline,
        )

    def progress(self, budget: int | None = None) -> int:
        return self.channel.client.progress(budget)


# ---------------------------------------------------------------------------
# Pair factory
# ---------------------------------------------------------------------------


def bootstrap(host: HostEngine, dpu: DpuEngine) -> None:
    """The startup handshake with both halves at hand (§V-B): the host
    SENDs the blob — every method must be registered by now, the blob
    carries the method table — and the DPU polls it in and builds its
    deserializer.  The multiprocess deployment runs the same two steps
    as control commands (``ProcSupervisor.bootstrap``)."""
    host.send_bootstrap()
    dpu.receive_bootstrap()


@dataclass
class OffloadPair:
    """A fully bootstrapped DPU+host deployment over one channel."""

    channel: Channel
    dpu: DpuEngine
    host: HostEngine

    def progress(self, iterations: int = 1) -> None:
        """Advance both halves via the channel's progress engine."""
        for _ in range(iterations):
            self.channel.engine.step()

    def run_until_idle(self, max_iters: int = 10_000) -> None:
        client = self.channel.client
        for _ in range(max_iters):
            self.channel.engine.step()
            if client.outstanding == 0 and not client._send_queue:
                return
        raise RuntimeError("offload pair did not go idle")


def create_offload_pair(
    schema: CompiledSchema,
    methods: list[tuple],
    client_config: ProtocolConfig = CLIENT_DEFAULTS,
    server_config: ProtocolConfig = SERVER_DEFAULTS,
    dpu_abi: AbiConfig | None = None,
    host_abi: AbiConfig | None = None,
) -> OffloadPair:
    """Build a channel, register methods, verify binary compatibility,
    and run the ADT handshake.

    ``methods`` entries are ``(method_id, input_type, callback)``.
    """
    dpu_abi = dpu_abi or AbiConfig()
    host_abi = host_abi or AbiConfig()
    channel = create_channel(client_config, server_config)
    host = HostEngine(channel, schema, host_abi)
    for method_id, input_type, callback in methods:
        host.register_method(method_id, input_type, callback)
        # §V-A: the pairing is validated, not assumed.
        report = check_compatibility(schema.pool.message(input_type), dpu_abi, host_abi)
        report.raise_if_incompatible()
    dpu = DpuEngine(channel, dpu_abi)
    bootstrap(host, dpu)
    return OffloadPair(channel, dpu, host)
