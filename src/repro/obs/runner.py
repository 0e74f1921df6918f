"""Traced workload runner behind ``repro trace`` / ``repro top`` /
``repro metrics``.

Builds a real deployment — the full offloaded stack (xRPC client →
DPU front end → arena deserializer → RPC-over-RDMA → host engine) or
the bare core channel — with every layer's trace hook attached to one
:class:`~repro.obs.trace.TraceCollector`, pushes a mixed workload
through it, and returns the stitched timelines plus the per-stage
latency histograms.  The CLI renders; this module runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics import MetricsRegistry

from .perfetto import to_trace_events
from .timeline import StageLatencyExporter, TailSampler, stitch
from .trace import TraceCollector, attach_channel

__all__ = ["TraceRunResult", "run_traced_workload", "DEPLOYMENTS"]

#: ``procs`` is the 3-OS-process shm deployment (client = this process,
#: DPU and host children); it implies ``transport="shm"``.
DEPLOYMENTS = ("offloaded", "core", "procs")


@dataclass
class TraceRunResult:
    """Everything one traced run produced."""

    deployment: str
    requests: int
    errors: int
    collector: TraceCollector
    registry: MetricsRegistry
    latency: StageLatencyExporter
    timelines: list = field(default_factory=list)
    global_events: list = field(default_factory=list)
    sampled: list = field(default_factory=list)

    def trace_events(self) -> dict:
        """The Perfetto document for the *sampled* timelines."""
        return to_trace_events(self.sampled, self.global_events)

    def slowest(self):
        return max(self.timelines, key=lambda tl: tl.total, default=None)


def _build_deployment(kind: str, collector: TraceCollector,
                      explicit_context: bool, transport: str):
    """The ``offloaded`` and ``procs`` deployments of the shared Bench
    service (:func:`repro.workloads.bench_service`), every layer attached
    to ``collector``.  ``procs``: every request really crosses two OS
    process boundaries (client -> DPU via socketpair, DPU -> host via
    shared-memory RDMA), and the child trace rings merge into
    ``collector`` at teardown (``ProcSupervisor.stop`` imports each
    child's final snapshot), re-based onto the parent's clock."""
    from repro.deploy import build
    from repro.workloads import WorkloadFactory, bench_service
    from repro.xrpc import make_stub_class

    if kind == "procs" and transport != "shm":
        raise ValueError("the procs deployment only runs on the shm transport")
    schema, service, servicer = bench_service()
    deployment = build(kind, schema, service, servicer, transport=transport,
                       collector=collector, explicit_context=explicit_context,
                       name="traceprocs")
    channel = deployment.channel("trace-client")
    stub = make_stub_class(service, schema.factory)(channel)
    factory = WorkloadFactory(schema=schema)
    calls = (
        lambda: stub.PingSmall(factory.small()),
        lambda: stub.SumInts(factory.int_array(128)),
        lambda: stub.Upper(factory.char_array(256)),
    )

    def issue(i: int) -> bool:
        calls[i % len(calls)]()
        return True

    endpoints = {}
    if deployment.rdma is not None:
        endpoints = {"client": deployment.rdma.client, "server": deployment.rdma.server}
    # Overload-control sources for the merged scrape (`repro metrics`):
    # whatever this deployment can be scraped for from here, plus the
    # client-side retry budget — OverloadExporter handles every shape.
    overload = dict(deployment.overload_sources(), budget=channel.retry_budget)
    return issue, endpoints, deployment.close, overload


def _build_core(collector: TraceCollector, explicit_context: bool,
                transport: str = "inproc"):
    from repro.core import Flags, Response, create_channel

    channel = create_channel(transport=transport)
    attach_channel(collector, channel, stream="core",
                   client_component="client.rpc", server_component="server.rpc",
                   explicit_context=explicit_context)
    channel.server.register(
        1, lambda req: Response.from_bytes(req.payload_bytes().upper())
    )
    channel.server.register(
        2, lambda req: Response.from_bytes(b"boom", flags=Flags.ERROR)
    )

    def issue(i: int) -> bool:
        done: list = []
        method = 2 if i % 16 == 15 else 1  # a sprinkle of error responses
        channel.client.enqueue_bytes(
            method, b"payload-%04d" % i, lambda view, flags: done.append(flags)
        )
        for _ in range(10_000):
            channel.progress()
            if done:
                break
        return bool(done) and not (done[0] & Flags.ERROR)

    endpoints = {"client": channel.client, "server": channel.server}
    overload = {"stages": [channel.server]}
    return issue, endpoints, channel.close, overload


def run_traced_workload(
    deployment: str = "offloaded",
    requests: int = 60,
    explicit_context: bool = False,
    keep_slowest: int = 10,
    ring: int = 1 << 15,
    registry: MetricsRegistry | None = None,
    collector: TraceCollector | None = None,
    transport: str | None = None,
) -> TraceRunResult:
    """Run ``requests`` RPCs through a fully traced deployment and
    stitch the result.  Endpoint statistics are exported into the same
    registry (``repro metrics`` dumps the combined scrape).

    ``transport`` selects the fabric backend (docs/TRANSPORT.md) for the
    in-process deployments; the ``procs`` deployment always runs shm."""
    if deployment not in DEPLOYMENTS:
        raise ValueError(f"unknown deployment {deployment!r}; pick from {DEPLOYMENTS}")
    if transport is None:
        transport = "shm" if deployment == "procs" else "inproc"
    collector = collector or TraceCollector(ring=ring)
    registry = registry or MetricsRegistry()
    if deployment == "core":
        issue, endpoints, finalize, overload = _build_core(
            collector, explicit_context, transport)
    else:
        issue, endpoints, finalize, overload = _build_deployment(
            deployment, collector, explicit_context, transport)

    errors = 0
    try:
        for i in range(requests):
            try:
                ok = issue(i)
            except Exception:
                ok = False
            if not ok:
                errors += 1
    finally:
        finalize()

    from repro.metrics import EndpointExporter, OverloadExporter

    for label, endpoint in endpoints.items():
        EndpointExporter(registry, endpoint, f"trace_{deployment}_{label}").update()

    # The overload subsystem joins the same scrape: per-stage deadline
    # drops, admission outcomes, breaker state, retry budget — whatever
    # sources this deployment actually has (docs/OVERLOAD.md).  Before
    # this bind, a plain `repro metrics` run silently omitted them.
    OverloadExporter(registry, "overload", **overload).update()

    # Codec-layer counters: the generated-codec tier (compiles, cache
    # hits, source bytes, compile ns) and its decode/encode volume land in
    # the same scrape, so ``repro metrics`` shows what the codec layer did.
    from repro.proto import ENCODE_PLAN_METRICS, PLAN_METRICS

    PLAN_METRICS.bind_registry(registry).export()
    ENCODE_PLAN_METRICS.bind_registry(registry).export()

    timelines, global_events = stitch(collector)
    latency = StageLatencyExporter(registry)
    latency.observe(timelines)
    sampled = TailSampler(keep_slowest=keep_slowest).sample(timelines)
    return TraceRunResult(
        deployment=deployment,
        requests=requests,
        errors=errors,
        collector=collector,
        registry=registry,
        latency=latency,
        timelines=timelines,
        global_events=global_events,
        sampled=sampled,
    )
