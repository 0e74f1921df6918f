"""Trace-driven workload bench (not a paper figure).

The paper's design decisions — Nagle batching, the 8 KiB block optimum,
per-class ADTs — are motivated by fleet statistics ("nearly 90% of
analyzed messages are 512 bytes or less", §IV).  This bench drives the
datapath rig with the fleet-shaped mixture and with the Google-suite
style deeply-nested message, confirming the headline effect (host CPU
reduction at throughput parity) holds beyond the three synthetic shapes.
"""

from __future__ import annotations

import json
import pathlib
import time
import tracemalloc

import pytest

from repro.core import Response, create_channel
from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, TypeUniverse
from repro.proto import serialize
from repro.sim import DatapathSimulator, Scenario, WorkloadProfile
from repro.workloads import FLEET_MIX, WorkloadFactory, deeply_nested, nested_schema

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_trace.json"


def test_fleet_mix_datapath(report, benchmark):
    profile = WorkloadProfile.measure_mix(FLEET_MIX)
    frac = FLEET_MIX.small_fraction(WorkloadFactory())

    def run():
        return (
            DatapathSimulator(profile, Scenario.DPU_OFFLOAD).run(),
            DatapathSimulator(profile, Scenario.CPU_BASELINE).run(),
        )

    dpu, cpu = benchmark.pedantic(run, rounds=1)
    lines = [
        f"fleet mix: {frac:.0%} of messages <= 512 B "
        f"(cited fleet statistic: ~90%)",
        f"mean wire {profile.serialized_size} B -> mean object "
        f"{profile.object_size} B (x{profile.compression_ratio:.2f})",
        dpu.summary(),
        cpu.summary(),
        f"RPS parity: {dpu.requests_per_second / cpu.requests_per_second:.2f}, "
        f"host CPU reduction: {cpu.host_cores_used / dpu.host_cores_used:.2f}x",
    ]
    report("trace_mix_datapath", "\n".join(lines))

    assert 0.7 <= dpu.requests_per_second / cpu.requests_per_second <= 1.4
    assert cpu.host_cores_used / dpu.host_cores_used > 1.5


def test_trace_overhead(report):
    """Observability cost on the fleet-shaped request path, in tiers.

    The contract the datapath makes (docs/OBSERVABILITY.md#overhead) is
    that tracing is *free when off*: every hook is one ``is not None``
    test and the disabled path allocates nothing in ``obs``.  That is
    the gated number — a channel whose hooks were armed and detached
    must stay within 5 % of one never armed, and tracemalloc must see
    zero obs allocations.  Full-fidelity tracing records ~10 stage
    events per request in pure Python, so its enabled-vs-disabled RPS
    delta (and the telemetry hub's marginal cost on top) is measured
    and *reported* into ``BENCH_trace.json`` rather than gated — the
    fidelity is the product, the disabled path is the promise."""
    METHOD = 1
    factory = WorkloadFactory()
    wires = [serialize(m) for m in FLEET_MIX.sample(factory, 64)]

    def make_channel():
        ch = create_channel()
        ch.server.register(
            METHOD, lambda req: Response.from_bytes(req.payload_bytes()))
        return ch

    def drive(ch, n: int) -> None:
        # a tier with a telemetry hub ticks it once per pass, as the
        # `repro top --live` loop does
        tick = getattr(ch, "tick", None) or (lambda: None)
        done = []
        k = len(wires)
        for i in range(n):
            ch.client.enqueue_bytes(
                METHOD, wires[i % k], lambda v, f: done.append(f))
            ch.client.progress()
            ch.server.progress()
            tick()
        for _ in range(40 * n):
            if len(done) == n:
                break
            ch.client.progress()
            ch.server.progress()
            tick()
        assert len(done) == n

    def measure(setups, n: int = 1_500, rounds: int = 5) -> dict:
        # interleave the tiers round-robin so clock drift and machine
        # noise land on every tier equally, then take each tier's best
        best = {name: 0.0 for name in setups}
        for _ in range(rounds):
            for name, setup in setups.items():
                ch = setup()
                t0 = time.perf_counter()
                drive(ch, n)
                best[name] = max(best[name], n / (time.perf_counter() - t0))
        return best

    def disabled():
        return make_channel()

    def detached():
        # hooks armed then removed: the disabled predicates must be
        # exactly as inert as never having attached at all
        from repro.obs import TraceCollector, attach_channel

        ch = make_channel()
        attach_channel(TraceCollector(), ch, stream="t")
        ch.client.trace = None
        ch.server.trace = None
        ch.fabric.trace = None
        return ch

    def traced():
        from repro.obs import TraceCollector, attach_channel

        ch = make_channel()
        attach_channel(TraceCollector(), ch, stream="t")
        return ch

    def telemetry():
        from repro.obs import TelemetryHub, TraceCollector, attach_channel

        ch = make_channel()
        collector = TraceCollector()
        ch.tick = TelemetryHub(collector, window_ticks=64).on_tick
        attach_channel(collector, ch, stream="t")
        return ch

    drive(make_channel(), 32)  # warm caches before any measurement
    tiers = measure({
        "disabled": disabled,
        "detached": detached,
        "traced": traced,
        "telemetry": telemetry,
    })

    # zero-alloc check, same discipline as tests/obs/test_overhead_guard
    ch = make_channel()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    drive(ch, 8)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    obs_allocs = [
        stat for stat in after.compare_to(before, "filename")
        if "/obs/" in stat.traceback[0].filename and stat.size_diff > 0
    ]

    disabled_overhead = 1.0 - tiers["detached"] / tiers["disabled"]
    traced_delta = 1.0 - tiers["traced"] / tiers["disabled"]
    telemetry_delta = 1.0 - tiers["telemetry"] / tiers["disabled"]
    hub_marginal = 1.0 - tiers["telemetry"] / tiers["traced"]

    payload = {
        "requests_per_tier": 1_500,
        "mean_wire_bytes": sum(len(w) for w in wires) // len(wires),
        "rps": {k: round(v, 1) for k, v in tiers.items()},
        "disabled_path_overhead": round(disabled_overhead, 4),
        "enabled_vs_disabled_delta": round(traced_delta, 4),
        "telemetry_vs_disabled_delta": round(telemetry_delta, 4),
        "telemetry_marginal_over_traced": round(hub_marginal, 4),
        "disabled_obs_allocations": len(obs_allocs),
        "overhead_gate_pct": 5.0,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "trace_overhead",
        "\n".join([
            f"{'tier':<10} {'rps':>9}   delta vs disabled",
            *(
                f"{name:<10} {v:>9.0f}   {1 - v / tiers['disabled']:>7.1%}"
                for name, v in tiers.items()
            ),
            f"telemetry hub marginal over traced: {hub_marginal:.1%}",
            f"disabled-path gate: {disabled_overhead:.1%} <= 5.0% "
            f"(obs allocations: {len(obs_allocs)})",
            f"persisted to {BENCH_JSON}",
        ]),
    )

    # The gate: observability is free when off — armed-then-detached
    # hooks cost <= 5 % vs never-armed, and allocate nothing in obs.
    assert disabled_overhead <= 0.05, tiers
    assert obs_allocs == [], [str(s) for s in obs_allocs]
    # Sanity on the reported deltas: full tracing costs something, the
    # hub costs more, and neither halves the datapath.
    assert 0.0 <= traced_delta <= 0.5, tiers
    assert tiers["telemetry"] <= tiers["traced"] + tiers["disabled"] * 0.02, tiers


def test_bench_deeply_nested_deserialize(benchmark, report):
    """Our deserializer on the 'huge, deeply nested' shape: recursion,
    per-node strings and packed arrays."""
    schema = nested_schema()
    root = deeply_nested(depth=5, fanout=3, schema=schema)
    wire = serialize(root)
    space = AddressSpace()
    space.map(MemoryRegion(0x10_0000, 1 << 24))
    universe = TypeUniverse(space)
    adt = universe.build_adt([schema.pool.message("nested.Node")])
    deser = ArenaDeserializer(adt)
    idx = adt.index_of("nested.Node")

    def run():
        arena = Arena(space, 0x10_0000, 1 << 24)
        return deser.deserialize(idx, wire, arena), arena.used

    benchmark.group = "nested"
    _, arena_used = benchmark(run)
    report(
        "trace_nested",
        f"deeply nested tree: {len(wire)} wire bytes -> {arena_used} object "
        f"bytes across 121 nodes (max depth 5)",
    )
