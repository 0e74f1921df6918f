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
Admission, breaker and knobs are set on the parts after the build; the
deployment's one :class:`~repro.metrics.registry.MetricsRegistry` reads
them when it is scraped.
"""

from __future__ import annotations

from functools import partial

from repro.core import create_channel
from repro.core.endpoint import endpoint_families
from repro.metrics import MetricsRegistry
from repro.offload.engine import DpuEngine, HostEngine, bootstrap
from repro.proto import ENCODE_PLAN_METRICS, PLAN_METRICS
from repro.runtime.overload import overload_families
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


def dpu_half(channel, service, network=None,
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
    return OffloadedXrpcServer(network, ADDRESS, dpu, service)


def _overload(front, rdma, budgets):
    """The overload families of what this process can see, read now
    (the ``procs`` sources live in the children)."""
    if front is None:
        return overload_families(budgets=budgets)
    stages = [front] if rdma is None else [front, rdma.server]
    admissions = [front.admission] if front.admission is not None else []
    return overload_families(stages, admissions, getattr(front, "breaker", None), budgets)


class Deployment:
    """One built stack.  Parts a kind does not have in this process are
    None: ``baseline`` has only :attr:`front`; ``procs`` only
    :attr:`supervisor` — its front end and engines live in the children.

    :attr:`registry` reads, at every scrape, what can be read from this
    process: the RDMA endpoints' stats, the overload sources (front door,
    server endpoint, admission, breaker, the retry budget of every client
    :meth:`channel` made) and the codec counters.  Nothing is copied
    into it on the datapath."""

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
        #: retry budgets of the clients :meth:`channel` made
        self._budgets: list = []
        # The collectors hold the parts, not this object: no reference
        # cycle, so a dropped deployment is freed at once.
        self.registry = MetricsRegistry()
        if rdma is not None:
            for side in ("client", "server"):
                # "trace_": the names `repro metrics` has always printed
                self.registry.add_collector(partial(
                    endpoint_families, getattr(rdma, side), f"trace_{kind}_{side}"))
        self.registry.add_collector(partial(_overload, front, rdma, self._budgets))
        self.registry.add_collector(PLAN_METRICS.collect)
        self.registry.add_collector(ENCODE_PLAN_METRICS.collect)

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
        deployment is; its retry budget joins :attr:`registry`."""
        if self.supervisor is not None:
            channel = self.supervisor.xrpc_channel()
        else:
            channel = XrpcChannel(self.network, ADDRESS, name)
            channel.drive = self.drive
            if self.collector is not None:
                channel.trace = self.collector.recorder("xrpc.client")
        if channel.retry_budget not in self._budgets:
            self._budgets.append(channel.retry_budget)
        return channel

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
          collector=None, explicit_context: bool = False,
          name: str = "procs") -> Deployment:
    """Build one deployment of ``service`` served by ``servicer``.

    ``transport`` is the fabric under the in-process ``offloaded`` kind
    (``baseline`` has none, ``procs`` is shm by construction);
    ``collector`` attaches every layer to one
    :class:`~repro.obs.trace.TraceCollector`, and ``explicit_context``
    then makes the in-process RDMA client carry trace ids on the wire
    instead of deriving them; ``name`` names the ``procs`` children and
    their shared-memory segments."""
    if kind == "baseline":
        network = Network()
        front = XrpcServer(network, ADDRESS, schema.factory)
        front.add_service(service, servicer)
        if collector is not None:
            front.trace = collector.recorder("xrpc.server")
        return Deployment(kind, front=front, network=network, collector=collector)
    if kind == "offloaded":
        rdma = create_channel(transport=transport)
        try:
            host = host_half(rdma, schema, service, servicer)
            network = Network()
            front = dpu_half(rdma, service, network, host=host)
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

        supervisor = ProcSupervisor(schema, service, servicer, name=name,
                                    trace=collector is not None)
        if collector is not None:
            supervisor.collector = collector  # the children's rings merge into it
        supervisor.start()  # tears down what it spawned if it fails
        return Deployment(kind, supervisor=supervisor, collector=collector)
    raise ValueError(f"unknown deployment kind {kind!r}")
