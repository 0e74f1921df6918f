"""What the benchmark declares: workloads, metrics, bounds.

This is the one place the names live.  ``BENCHMARK.json`` at the repo
root repeats them for the driver (``test_harness.py`` checks the two
agree), the README explains them, and every later issue quotes them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "Metric", "WORKLOADS", "END_TO_END", "UNBOUNDED", "PER_LAYER",
           "WARMUP_S", "SEGMENT_S", "DEFAULT_SECONDS", "SETUP_SAMPLES"]

#: Untimed lead-in before the measured window: codec compiles, allocator
#: growth, child page faults.
WARMUP_S = 2.0
#: The measured window is cut into segments of this length; every timing
#: metric is the median over the segments.
SEGMENT_S = 1.0
#: Measured window, seconds (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 10
#: Set-ups timed per run (separate processes); ``setup_s`` is their median.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: "offloaded" (DPU front end + engines over the inproc fabric),
    #: "procs" (3 OS processes over shm) or "baseline" (host-parse server)
    deployment: str
    #: service methods issued round-robin, one request shape each
    methods: tuple[str, ...]
    #: requests kept outstanding by the closed loop
    depth: int
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "small_offload", "offloaded", ("PingSmall",), 16,
        "Smallest message (15 B -> Empty), D=16: the per-message cost of every layer with the "
        "least payload work; 16 messages per block, so batching is fully engaged.",
    ),
    Workload(
        "ints512_offload", "offloaded", ("SumInts",), 16,
        "x512 Ints -> Small, D=16: compute-bound, offload.arena_deserializer varint decode and "
        "offload.materialize per-element view reads dominate; plumbing is small.",
    ),
    Workload(
        "chars8000_offload", "offloaded", ("CountChars",), 16,
        "x8000 Chars -> Small, D=16: copy-bound, one 8 kB string per block; shows the "
        "byte-proportional costs (frame slicing, arena copy, fabric write) the other two hide.",
    ),
    Workload(
        "resp_ints512_offload", "offloaded", ("GenInts",), 16,
        "Small -> x512 Ints, D=16: response direction; proto.message construction, proto.serializer "
        "and the server-to-client block path do the work, so an encode regression shows here.",
    ),
    Workload(
        "small_d1_offload", "offloaded", ("PingSmall",), 1,
        "Small -> Empty at D=1: unloaded round trip, one message per block, two fabric ops per "
        "request; flush policy and idle poll passes set p50_us.",
    ),
    Workload(
        "small_procs", "procs", ("PingSmall",), 16,
        "Small -> Empty over runtime.procs (client + DPU child + host child, shm fabric, AF_UNIX "
        "doorbells), D=16: syscalls and sleep/wake dominate; the only workload where layers overlap.",
    ),
    Workload(
        "mix_baseline", "baseline", ("PingSmall", "SumInts", "CountChars"), 16,
        "Small / x512 Ints / x8000 Chars round-robin on the host-parse XrpcServer, D=16: bypasses "
        "offload, core and rdma, so a change there must not move it; proto/ and xrpc.server regressions show.",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which an end-to-end metric may
    #: worsen before it counts as a regression (None for per-layer)
    bound: float | None
    definition: str


END_TO_END: tuple[Metric, ...] = (
    Metric("rps", "1/s", "higher", 0.20,
           "verified-OK responses per second at reference machine speed, median of the "
           "per-segment rates"),
    Metric("p50_us", "us", "lower", 0.20,
           "send -> response frame decoded, per-segment median, median over segments"),
    Metric("cpu_us_per_req", "us", "lower", 0.20,
           "utime+stime of every process of the deployment per completed request, "
           "median over segments"),
    Metric("setup_s", "s", "lower", 0.25,
           "process start -> deployment built, bootstrapped and one verified round trip "
           "per method; excludes request generation; median of several set-ups"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "sum of VmHWM over the deployment's processes at window end"),
)


def _layer(name: str, unit: str, better: str, definition: str) -> Metric:
    return Metric(name, unit, better, None, definition)


#: End-to-end by nature, but no bound the contract allows can be held on
#: them (README, "End-to-end metrics"): printed by every pass, declared in
#: BENCHMARK.json with the per-layer metrics, which carry no bound.
UNBOUNDED: tuple[Metric, ...] = (
    _layer("p99_us", "us", "lower",
           "per-segment p99 (or the highest percentile with >= 10 independent completions, "
           "i.e. 10 x depth samples, beyond it), median over the untraced segments"),
    _layer("error_share", "share", "lower",
           "(non-OK + payload mismatch + unanswered 2 s after the window) / attempted"),
)


PER_LAYER: tuple[Metric, ...] = (
    _layer("xrpc.framing.decode_us_per_req", "us", "lower",
           "server-side FrameDecoder.feed/frames self time"),
    _layer("xrpc.dpu_frontend.self_us_per_req", "us", "lower",
           "OffloadedXrpcServer.progress self time plus its response reframing continuation"),
    _layer("xrpc.dpu_frontend.passes_per_req", "1/req", "lower",
           "OffloadedXrpcServer.progress calls per completed request"),
    _layer("xrpc.dpu_frontend.fallback_share", "share", "lower",
           "(fallback_requests + breaker_fallbacks) / requests_forwarded; 0 on the fast path"),
    _layer("xrpc.server.self_us_per_req", "us", "lower",
           "XrpcServer.progress self time (baseline only)"),
    _layer("proto.deserializer.us_per_req", "us", "lower",
           "repro.proto.parse as called by XrpcServer"),
    _layer("proto.serializer.us_per_req", "us", "lower",
           "emit_writer / prepare_emit size pass plus the emit pass of what they return"),
    _layer("proto.message.build_us_per_req", "us", "lower",
           "servicer bracket around response Message construction"),
    _layer("proto.message.read_us_per_req", "us", "lower",
           "servicer bracket around field reads on a parsed Message (baseline only)"),
    _layer("offload.arena_deserializer.us_per_req", "us", "lower",
           "ArenaDeserializer.estimate_size + deserialize"),
    _layer("offload.arena_deserializer.varints_per_req", "1/req", "lower",
           "DeserializeStats.varints_decoded per request"),
    _layer("offload.arena_deserializer.bytes_copied_per_req", "B/req", "lower",
           "DeserializeStats string_bytes_copied + bytes_memcpy per request"),
    _layer("offload.materialize.view_read_us_per_req", "us", "lower",
           "servicer bracket around CppMessageView field reads"),
    _layer("memory.region_of_calls_per_req", "1/req", "lower",
           "AddressSpace.region_of calls per request, counted on a fixed batch (repeats exactly)"),
    _layer("offload.engine.dpu_call_us_per_req", "us", "lower",
           "DpuEngine.call self time"),
    _layer("offload.engine.host_dispatch_us_per_req", "us", "lower",
           "HostEngine method handler (view construction, callback dispatch, response wrap) self time"),
    _layer("offload.engine.dpu_side_us_per_req", "us", "lower",
           "total time inside front.progress(): everything the DPU does (Fig. 8c split)"),
    _layer("offload.engine.host_side_us_per_req", "us", "lower",
           "total time inside host.progress(): the host CPU the offload leaves (Fig. 8c split)"),
    _layer("core.endpoint.client_us_per_req", "us", "lower",
           "ClientEndpoint.enqueue + progress self time"),
    _layer("core.endpoint.server_us_per_req", "us", "lower",
           "ServerEndpoint.progress self time"),
    _layer("core.endpoint.msgs_per_block", "1/block", "higher",
           "client requests_sent / blocks_sent over the window"),
    _layer("core.credits.stalls", "count", "lower",
           "CreditManager.stalls, client + server, over the window"),
    _layer("core.credits.low_watermark", "count", "higher",
           "lowest credit count either side ever saw"),
    _layer("rdma.fabric.ops_per_req", "1/req", "lower",
           "FabricTransport.total_operations per request"),
    _layer("rdma.fabric.bytes_per_req", "B/req", "lower",
           "FabricTransport.total_bytes per request"),
    _layer("rdma.fabric.transmit_us_per_req", "us", "lower",
           "FabricTransport.transmit/step/flush self time"),
    _layer("rdma.fabric.rnr_retransmissions", "count", "lower",
           "receiver-not-ready retransmissions over the window"),
    _layer("runtime.procs.client_cpu_us_per_req", "us", "lower",
           "client process utime+stime per request (small_procs)"),
    _layer("runtime.procs.dpu_cpu_us_per_req", "us", "lower",
           "DPU child utime+stime per request (small_procs)"),
    _layer("runtime.procs.host_cpu_us_per_req", "us", "lower",
           "host child utime+stime per request (small_procs)"),
    _layer("runtime.procs.ctx_switches_per_req", "1/req", "lower",
           "voluntary + involuntary context switches of all three processes per request"),
    _layer("runtime.procs.fallback_requests", "count", "lower",
           "ProcSupervisor.stats() dpu fallback_requests; 0 on the fast path"),
    _layer("harness.self_us_per_req", "us", "lower",
           "driver's own send / recv / decode / verify self time"),
    _layer("harness.unattributed_share", "share", "lower",
           "share of the traced window's wall time inside no span"),
    _layer("harness.trace_overhead", "share", "lower",
           "1 - rps(traced window) / rps(untraced window of the same process)"),
    _layer("harness.rate_spread", "share", "lower",
           "(max - min) / median of the per-segment rates"),
    _layer("harness.stable", "bool", "higher",
           "StabilityMonitor(window=5, tolerance=0.05) verdict over the per-segment rates"),
    *UNBOUNDED,
)
