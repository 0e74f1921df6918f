"""The traced pass: which calls become spans, which counters are read,
and how both turn into the per-layer metrics of ``spec.PER_LAYER``.

Every layer is measured from outside: a wrapper times a call into one
of its public functions, on the object the benchmark built.
"""

from __future__ import annotations

from repro.xrpc.framing import FrameDecoder

from . import procfs
from .spans import SpanRecorder

__all__ = ["install", "count_region_of", "counters", "per_layer_metrics", "SPAN_METRICS"]

#: per-layer self-time metric -> the span names whose self time it sums
SPAN_METRICS = {
    "xrpc.framing.decode_us_per_req": ("xrpc.framing.decode",),
    "xrpc.dpu_frontend.self_us_per_req": ("xrpc.dpu_frontend.progress",
                                          "xrpc.dpu_frontend.respond"),
    "xrpc.server.self_us_per_req": ("xrpc.server.progress",),
    "proto.deserializer.us_per_req": ("proto.deserializer.parse",),
    "proto.serializer.us_per_req": ("proto.serializer.measure", "proto.serializer.emit"),
    "proto.message.build_us_per_req": ("proto.message.build",),
    "proto.message.read_us_per_req": ("proto.message.read",),
    "offload.arena_deserializer.us_per_req": ("offload.arena_deserializer.estimate_size",
                                              "offload.arena_deserializer.deserialize"),
    "offload.materialize.view_read_us_per_req": ("offload.materialize.view_read",),
    "offload.engine.dpu_call_us_per_req": ("offload.engine.dpu_call",),
    "offload.engine.host_dispatch_us_per_req": ("offload.engine.host_dispatch",
                                                "offload.engine.host_progress"),
    "core.endpoint.client_us_per_req": ("core.endpoint.client.enqueue",
                                        "core.endpoint.client.progress"),
    "core.endpoint.server_us_per_req": ("core.endpoint.server.progress",),
    "rdma.fabric.transmit_us_per_req": ("rdma.fabric.transmit", "rdma.fabric.step",
                                        "rdma.fabric.flush"),
    "harness.self_us_per_req": ("harness.send", "harness.collect"),
}


# -- wrappers that must also time something the call hands back ---------------


def _timed_dpu_call(rec: SpanRecorder, call):
    """DpuEngine.call, plus the response continuation the front end
    passes in (reframing + socket write: front-end work that runs deep
    inside the client endpoint's progress)."""
    timed = rec.timed("offload.engine.dpu_call", call)

    def wrapper(method_id, wire_bytes, on_response, *args, **kwargs):
        on_response = rec.timed("xrpc.dpu_frontend.respond", on_response)
        return timed(method_id, wire_bytes, on_response, *args, **kwargs)

    return wrapper


def _timed_emit_writer(rec: SpanRecorder, emit_writer):
    """emit_writer's size pass, plus the emit pass of the writer it returns."""
    measure = rec.timed("proto.serializer.measure", emit_writer)

    def wrapper(msg, mode=None):
        size, writer = measure(msg, mode)
        return size, rec.timed("proto.serializer.emit", writer)

    return wrapper


class _TimedSized:
    """What XrpcServer uses of prepare_emit's result, emit pass timed."""

    __slots__ = ("size", "emit_into")

    def __init__(self, rec: SpanRecorder, sized) -> None:
        self.size = sized.size
        self.emit_into = rec.timed("proto.serializer.emit", sized.emit_into)


def _timed_prepare_emit(rec: SpanRecorder, prepare_emit):
    measure = rec.timed("proto.serializer.measure", prepare_emit)
    return lambda msg, mode=None: _TimedSized(rec, measure(msg, mode))


# -- installation -------------------------------------------------------------


def install(rec: SpanRecorder, deployment, loop) -> None:
    """Wrap the driver's phases and every layer entry point of
    ``deployment``; ``rec.restore()`` removes them all."""
    rec.wrap(loop, "top_up", "harness.send")
    rec.wrap(loop, "collect", "harness.collect")
    if deployment.kind == "procs":
        # The layers run in the children; from here only the wait shows.
        rec.wrap(loop, "drive", "harness.wait")
        return
    # The server side's decoder is created inside the server, so the
    # class is wrapped; the driver bound its own decoder's methods before.
    rec.wrap(FrameDecoder, "feed", "xrpc.framing.decode")
    rec.patch(FrameDecoder, "frames",
              lambda fn: rec.timed_generator("xrpc.framing.decode", fn))
    parts = deployment.parts
    if deployment.kind == "baseline":
        import repro.xrpc.server as server_module

        rec.wrap(parts["xrpc_server"], "progress", "xrpc.server.progress")
        rec.wrap(server_module, "parse", "proto.deserializer.parse")
        rec.patch(server_module, "prepare_emit", lambda fn: _timed_prepare_emit(rec, fn))
        return
    import repro.offload.engine as engine_module

    rec.wrap(parts["front"], "progress", "xrpc.dpu_frontend.progress")
    rec.patch(parts["dpu"], "call", lambda fn: _timed_dpu_call(rec, fn))
    for op in ("estimate_size", "deserialize"):
        rec.wrap(parts["deserializer"], op, f"offload.arena_deserializer.{op}")
    rec.wrap(parts["client"], "enqueue", "core.endpoint.client.enqueue")
    rec.wrap(parts["client"], "progress", "core.endpoint.client.progress")
    rec.wrap(parts["server"], "progress", "core.endpoint.server.progress")
    rec.wrap(parts["host"], "progress", "offload.engine.host_progress")
    for op in ("transmit", "step", "flush"):
        rec.wrap(parts["fabric"], op, f"rdma.fabric.{op}")
    rec.patch(engine_module, "emit_writer", lambda fn: _timed_emit_writer(rec, fn))


def count_region_of(rec: SpanRecorder, deployment, loop, requests: int) -> float:
    """AddressSpace.region_of calls per request over exactly ``requests``
    requests.  Counted on its own fixed batch, not in the timed window:
    a counter on a per-element call would distort the spans around it,
    and the count repeats exactly anyway."""
    spaces = [deployment.parts[k] for k in ("client_space", "server_space")
              if k in deployment.parts]
    if not spaces:
        return 0.0
    calls = 0

    def counting(region_of):
        def counted(addr, length=1):
            nonlocal calls
            calls += 1
            return region_of(addr, length)

        return counted

    for space in spaces:
        rec.patch(space, "region_of", counting)
    try:
        loop.round_trips(requests)
    finally:
        rec.restore()
    return calls / requests


# -- counters -----------------------------------------------------------------


def counters(deployment) -> dict:
    """Cumulative counters from the deployment's public stats, plus
    context switches.  Read outside timed windows
    (for ``procs`` it costs two control round trips)."""
    out = {"ctx_switches": procfs.ctx_switches(deployment.pids.values())}
    parts = deployment.parts
    if deployment.kind == "offloaded":
        front, stats = parts["front"], parts["dpu"].stats
        client, server, fabric = parts["client"], parts["server"], parts["fabric"]
        out.update(
            forwarded=front.requests_forwarded,
            fallbacks=front.fallback_requests + front.breaker_fallbacks,
            varints=stats.varints_decoded,
            bytes_copied=stats.string_bytes_copied + stats.bytes_memcpy,
            requests_sent=client.stats.requests_sent,
            blocks_sent=client.stats.blocks_sent,
            credit_stalls=client.credits.stalls + server.credits.stalls,
            credit_low=min(client.credits.low_watermark, server.credits.low_watermark),
            fabric_ops=fabric.total_operations,
            fabric_bytes=fabric.total_bytes,
            rnr=fabric.rnr_retransmissions,
        )
    elif deployment.kind == "procs":
        stats = parts["supervisor"].stats()
        dpu, host = stats["dpu"], stats["host"]
        out.update(
            forwarded=dpu["requests_forwarded"],
            fallbacks=dpu["fallback_requests"],
            fabric_ops=dpu["fabric_ops"] + host["fabric_ops"],
            fabric_bytes=dpu["fabric_bytes"] + host["fabric_bytes"],
            rnr=host["rnr_retransmissions"],
        )
    return out


# -- metrics ------------------------------------------------------------------


def per_layer_metrics(rec: SpanRecorder, before: dict, after: dict, traced: dict,
                      reference: dict, roles: list[str], region_of_per_req: float,
                      error_share: float) -> dict[str, float]:
    """Every ``spec.PER_LAYER`` value for one traced window.  ``before``
    / ``after`` are :func:`counters` around the window, ``traced`` and
    ``reference`` the driver summaries of the traced segments and of the
    untraced ones that preceded them in the same process, ``roles`` names
    the processes ``traced["cpu_s"]`` lists.  Times are at reference
    machine speed, like the end-to-end ones."""
    is_procs = len(roles) > 1
    completed = traced["completed"]
    speed = traced["mean_speed"]  # the spans span every segment, disturbed or not

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def per_req(value: float) -> float:
        return value / completed

    def us_per_req(ns: float) -> float:
        return per_req(ns) * speed / 1e3

    out = {metric: us_per_req(rec.self_ns(*names)) for metric, names in SPAN_METRICS.items()}
    in_spans = sum(stat[0] for stat in rec.stats.values())
    forwarded = delta("forwarded")
    blocks = delta("blocks_sent")
    out.update({
        "xrpc.dpu_frontend.passes_per_req": per_req(rec.calls("xrpc.dpu_frontend.progress")),
        "xrpc.dpu_frontend.fallback_share": delta("fallbacks") / forwarded if forwarded else 0.0,
        "offload.arena_deserializer.varints_per_req": per_req(delta("varints")),
        "offload.arena_deserializer.bytes_copied_per_req": per_req(delta("bytes_copied")),
        "memory.region_of_calls_per_req": region_of_per_req,
        "offload.engine.dpu_side_us_per_req":
            us_per_req(rec.total_ns("xrpc.dpu_frontend.progress")),
        "offload.engine.host_side_us_per_req":
            us_per_req(rec.total_ns("offload.engine.host_progress")),
        "core.endpoint.msgs_per_block": delta("requests_sent") / blocks if blocks else 0.0,
        "core.credits.stalls": delta("credit_stalls"),
        "core.credits.low_watermark": after.get("credit_low", 0),
        "rdma.fabric.ops_per_req": per_req(delta("fabric_ops")),
        "rdma.fabric.bytes_per_req": per_req(delta("fabric_bytes")),
        "rdma.fabric.rnr_retransmissions": delta("rnr"),
        "runtime.procs.ctx_switches_per_req":
            per_req(delta("ctx_switches")) if is_procs else 0.0,
        "runtime.procs.fallback_requests": delta("fallbacks") if is_procs else 0.0,
        "harness.unattributed_share": 1.0 - in_spans / (traced["elapsed_s"] * 1e9),
        "harness.trace_overhead": 1.0 - traced["rps"] / reference["rps"],
        "harness.rate_spread": traced["rate_spread"],
        "harness.stable": float(traced["stable"]),
        "p99_us": reference["p99_us"],
        "error_share": error_share,
    })
    cpu = dict(zip(roles, traced["cpu_s"])) if is_procs else {}
    for role in ("client", "dpu", "host"):
        out[f"runtime.procs.{role}_cpu_us_per_req"] = us_per_req(cpu.get(role, 0.0) * 1e9)
    return out
