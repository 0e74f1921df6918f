"""Building a deployment: one function makes every kind of stack.

"Clients only change the server address" (§III-A, §V-D), and §VI measures
the host-parse server and the offloaded one side by side.  :func:`build`
is that comparison's construction half: one schema, service and servicer
become a ``baseline`` (``XrpcServer`` on the host), an ``offloaded``
stack in this process (DPU front end → RPC over RDMA → host engine) or
``procs``, the same two halves in two child processes — and the
:class:`Deployment` that comes back is connected to, driven, scraped and
torn down the same way whichever it is.  The builder owns four decisions
(DESIGN.md "Building a deployment"): the build + bootstrap order, the
drive pass, where recorders attach, and all-or-nothing teardown.
Admission, breaker and knobs are set on the parts after the build.
"""

from __future__ import annotations

from repro.core import create_channel
from repro.offload.engine import DpuEngine, HostEngine, bootstrap
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    XrpcChannel,
    XrpcServer,
    register_offloaded_servicer,
)

__all__ = ["ADDRESS", "Deployment", "build", "host_half", "dpu_half"]

#: Where every in-process front door listens.  Each deployment owns its
#: :class:`~repro.xrpc.transport.Network`, so the address is not a
#: parameter.
ADDRESS = "xrpc:50051"


def host_half(channel, schema, service, servicer) -> HostEngine:
    """The host half of an offloaded stack: the engine that owns the
    type universe, the unmodified servicer plugged in through the
    compatibility layer.  ``channel`` needs only its server side."""
    host = HostEngine(channel, schema)
    register_offloaded_servicer(host, service, servicer)
    return host


def dpu_half(channel, service, network=None, layout_salt: str = "",
             host: HostEngine | None = None) -> OffloadedXrpcServer:
    """The DPU half: the deserialization engine and the front end that
    feeds it (``front.dpu``).  ``channel`` needs only its client side.

    Order: with ``host`` — both halves in one process, every method
    already registered — the ADT crosses here (§V-B), before the front
    end listens.  Without it the bootstrap arrives later (a control
    command in the ``procs`` children) and the front end serves through
    the host-parse fallback until then.  Without a ``network``
    connections arrive through ``front.adopt``."""
    dpu = DpuEngine(channel)
    if host is not None:
        bootstrap(host, dpu)
    return OffloadedXrpcServer(network, ADDRESS, dpu, service, layout_salt)


class Deployment:
    """One built stack.  Parts a kind does not have in this process are
    None: ``baseline`` has only :attr:`front`; ``procs`` only
    :attr:`supervisor` — its front end and engines live in the children."""

    def __init__(self, kind: str, *, front=None, host=None, rdma=None,
                 network=None, supervisor=None, collector=None) -> None:
        self.kind = kind
        #: the server clients reach: XrpcServer or OffloadedXrpcServer
        self.front = front
        self.dpu = getattr(front, "dpu", None)
        self.host = host
        #: the RPC-over-RDMA :class:`~repro.core.channel.Channel`
        self.rdma = rdma
        self.network = network
        self.supervisor = supervisor
        self.collector = collector

    def drive(self) -> None:
        """One pass of everything server-side: front end, then host, so
        what a pass forwards the same pass can answer.  The ``procs``
        children run themselves; there the pass checks they are alive
        and yields the CPU to them."""
        if self.supervisor is not None:
            self.supervisor.drive()
            return
        self.front.progress()
        if self.host is not None:
            self.host.progress()

    def connect(self, name: str = "client"):
        """A raw client socket, for callers that frame requests
        themselves.  ``procs`` has one client connection: this is the
        socket under :meth:`channel`."""
        if self.supervisor is not None:
            return self.supervisor.xrpc_channel().socket
        return self.network.connect(ADDRESS, name)

    def channel(self, name: str = "xrpc-client") -> XrpcChannel:
        """A client channel with :meth:`drive` wired, traced when the
        deployment is."""
        if self.supervisor is not None:
            return self.supervisor.xrpc_channel()
        channel = XrpcChannel(self.network, ADDRESS, name)
        channel.drive = self.drive
        if self.collector is not None:
            channel.trace = self.collector.recorder("xrpc.client")
        return channel

    def overload_sources(self) -> dict:
        """Keyword arguments for
        :class:`~repro.metrics.exporters.OverloadExporter`: what can be
        scraped from this process (the ``procs`` sources live in the
        children); an absent admission controller or breaker is empty."""
        front = self.front
        if front is None:
            return {}
        return {
            "stages": [front] if self.rdma is None else [front, self.rdma.server],
            "admissions": [front.admission] if front.admission is not None else [],
            "breaker": getattr(front, "breaker", None),
        }

    def close(self) -> None:
        """Release everything the build made — children, sockets,
        shared-memory segments.  Idempotent."""
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.rdma is not None:
            self.rdma.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build(kind: str, schema, service, servicer, *, transport: str = "inproc",
          layout_salt: str = "", collector=None, explicit_context: bool = False,
          name: str = "procs") -> Deployment:
    """Build one deployment of ``service`` served by ``servicer``.

    ``transport`` is the fabric under the in-process ``offloaded`` kind
    (``baseline`` has none, ``procs`` is shm by construction);
    ``layout_salt`` perturbs the front door's WIRE_FIXED negotiation
    hash (docs/FAULTS.md); ``collector`` attaches every layer to one
    :class:`~repro.obs.trace.TraceCollector`, and ``explicit_context``
    then makes the in-process RDMA client carry trace ids on the wire
    instead of deriving them; ``name`` names the ``procs`` children and
    their shared-memory segments."""
    if kind == "baseline":
        network = Network()
        front = XrpcServer(network, ADDRESS, schema.factory, layout_salt=layout_salt)
        front.add_service(service, servicer)
        if collector is not None:
            front.trace = collector.recorder("xrpc.server")
        return Deployment(kind, front=front, network=network, collector=collector)
    if kind == "offloaded":
        rdma = create_channel(transport=transport)
        try:
            host = host_half(rdma, schema, service, servicer)
            network = Network()
            front = dpu_half(rdma, service, network, layout_salt, host=host)
            if collector is not None:
                # After the bootstrap (control traffic is not request
                # scoped), before the first request: both endpoints'
                # §IV-D derived serials start at the same message.
                from repro.obs.trace import attach_channel

                attach_channel(collector, rdma, stream="rdma",
                               client_component="dpu.rpc", server_component="host.rpc",
                               explicit_context=explicit_context)
                front.dpu.trace = collector.recorder("dpu.engine")
                host.trace = collector.recorder("host.engine")
                front.trace = collector.recorder("dpu.frontend")
        except BaseException:
            rdma.close()  # shm: the doorbell sockets and both segments
            raise
        return Deployment(kind, front=front, host=host, rdma=rdma,
                          network=network, collector=collector)
    if kind == "procs":
        from repro.runtime.procs import ProcSupervisor

        if layout_salt:
            raise ValueError("the procs children take no layout salt")
        supervisor = ProcSupervisor(schema, service, servicer, name=name,
                                    trace=collector is not None)
        if collector is not None:
            supervisor.collector = collector  # the children's rings merge into it
        supervisor.start()  # tears down what it spawned if it fails
        return Deployment(kind, supervisor=supervisor, collector=collector)
    raise ValueError(f"unknown deployment kind {kind!r}")
