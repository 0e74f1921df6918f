"""Deterministic open-loop overload workload (docs/OVERLOAD.md).

Closed-loop drivers (``call_sync`` in a loop) cannot overload anything:
the client only offers a new request after the previous one answered, so
offered load self-limits at capacity — the *coordinated omission* trap.
This harness is open-loop: arrivals follow a seeded Poisson process that
keeps offering work whether or not the datapath keeps up, which is the
only way to exercise admission control and deadline expiry.

Everything is simulated time on a :class:`~repro.runtime.overload.
ManualClock` — one *tick* is one event-loop pass plus ``tick_us``
microseconds — so identical seeds give identical shed / expiry
sequences on any machine (the fault campaign fingerprints them) and
latency percentiles are exact, not noisy.

The driven stack is the full offloaded deployment: xRPC clients →
:class:`~repro.xrpc.dpu_frontend.OffloadedXrpcServer` → DPU engine →
RPC over RDMA → host engine, with capacity modeled by the front end's
per-pass forward budget and overload injected as a burst window of
elevated arrivals plus (optionally) a host-worker slowdown that stalls
``host.progress()`` for a stretch of ticks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.metrics import percentile
from repro.runtime.overload import (
    LANE_BULK,
    LANE_LATENCY,
    LANE_NAMES,
    ManualClock,
    install_clock,
    installed_clock,
    now_us,
)
from repro.xrpc.framing import StatusCode, parse_overload_detail

__all__ = [
    "OpenLoopConfig",
    "OpenLoopResult",
    "percentile",
    "run_open_loop",
]

_OPENLOOP_PROTO = """
syntax = "proto3";
package openloop;
message Work { int64 x = 1; bytes blob = 2; }
message Done { int64 x = 1; }
service Pump { rpc Run (Work) returns (Done); }
"""
_SCHEMA = None


def _openloop_schema():
    global _SCHEMA
    if _SCHEMA is None:
        from repro.proto import compile_schema

        _SCHEMA = compile_schema(_OPENLOOP_PROTO)
    return _SCHEMA


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler — fine for the per-tick rates used here."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


@dataclass(frozen=True)
class OpenLoopConfig:
    """One open-loop run.  Rates are mean arrivals per tick; capacity is
    the front end's forward budget per tick, so ``offered_per_tick /
    capacity_per_tick`` is the normalized offered load."""

    seed: int = 0
    ticks: int = 2_000
    tick_us: int = 100
    offered_per_tick: float = 0.5
    capacity_per_tick: int = 1
    #: fraction of arrivals classified LANE_BULK (the rest LANE_LATENCY)
    bulk_fraction: float = 0.7
    #: relative deadline stamped on every call (0 = no deadline word)
    timeout_us: int = 0
    #: burst window [from, until): arrivals at ``burst_per_tick`` instead
    burst_from: int = 0
    burst_until: int = 0
    burst_per_tick: float = 0.0
    #: host-worker slowdown window: host.progress() only runs every
    #: ``slow_stride``-th tick while inside [from, until)
    slow_from: int = 0
    slow_until: int = 0
    slow_stride: int = 4
    #: drain budget after arrivals stop (hang guard)
    drain_ticks: int = 4_000
    payload_bytes: int = 96
    #: False = don't stamp priority lanes on the wire (every request
    #: rides the single FIFO) — the uncontrolled-baseline shape; lane
    #: *attribution* in the result still follows the intended mix
    use_lanes: bool = True


@dataclass
class OpenLoopResult:
    """Everything the campaign fingerprints and the benchmark reports."""

    config: OpenLoopConfig
    offered: int = 0
    completed: dict = field(default_factory=lambda: {LANE_LATENCY: 0, LANE_BULK: 0})
    shed: dict = field(default_factory=lambda: {LANE_LATENCY: 0, LANE_BULK: 0})
    expired: dict = field(default_factory=dict)  # stage -> drops (client view)
    errors: int = 0
    unanswered: int = 0
    ticks: int = 0
    #: per-lane response latencies in µs, ascending (successes only)
    latencies: dict = field(default_factory=lambda: {LANE_LATENCY: [], LANE_BULK: []})
    admission_stats: dict = field(default_factory=dict)
    server_expired: dict = field(default_factory=dict)  # stage -> server-side drops
    host_parsed: int = 0

    @property
    def total_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def goodput_per_tick(self) -> float:
        return self.total_completed / self.ticks if self.ticks else 0.0

    def p99_us(self, lane: int) -> float:
        return percentile(sorted(self.latencies[lane]), 0.99)

    def summary(self) -> dict:
        """JSON-ready digest (the benchmark writes these per load point)."""
        return {
            "offered": self.offered,
            "completed": {LANE_NAMES[k]: v for k, v in self.completed.items()},
            "shed": {LANE_NAMES[k]: v for k, v in self.shed.items()},
            "expired": dict(sorted(self.expired.items())),
            "errors": self.errors,
            "unanswered": self.unanswered,
            "ticks": self.ticks,
            "goodput_per_tick": round(self.goodput_per_tick, 6),
            "shed_rate": round(self.total_shed / self.offered, 6)
            if self.offered
            else 0.0,
            "p50_us": {
                LANE_NAMES[k]: percentile(sorted(v), 0.50)
                for k, v in self.latencies.items()
            },
            "p99_us": {
                LANE_NAMES[k]: percentile(sorted(v), 0.99)
                for k, v in self.latencies.items()
            },
        }

    def fingerprint_lines(self):
        """Deterministic event material for campaign fingerprints."""
        yield (
            f"offered={self.offered} completed={self.total_completed} "
            f"shed={self.shed[LANE_LATENCY]}/{self.shed[LANE_BULK]} "
            f"errors={self.errors} unanswered={self.unanswered}"
        )
        for stage in sorted(self.expired):
            yield f"expired:{stage}={self.expired[stage]}"


def run_open_loop(
    config: OpenLoopConfig,
    admission=None,
    observer=None,
) -> OpenLoopResult:
    """Drive the built offloaded deployment (xRPC client → DPU front end
    → RPC over RDMA → host engine) open-loop under ``config``: offer each
    tick's seeded arrivals to one client channel, run one pass of every
    event loop, and once arrivals stop keep ticking until every call is
    answered or the drain budget runs out.

    ``admission`` installs an admission controller on the DPU front end;
    None is the uncontrolled baseline the benchmark compares against.

    ``observer(collector)`` traces the run (the `repro top --live`
    dashboard): it is called once, before the first request, with a
    :class:`~repro.obs.trace.TraceCollector` on the simulated clock that
    the RDMA endpoints and the front end record into, and returns a hook
    called with ``config.tick_us`` after every tick.
    """
    from repro.deploy import build

    schema = _openloop_schema()
    Work, Done = schema["openloop.Work"], schema["openloop.Done"]

    class Servicer:
        def Run(self, request, context):
            return Done(x=request.x)

    service = schema.service("openloop.Pump")
    deployment = build("offloaded", schema, service, Servicer())
    rdma, host, front = deployment.rdma, deployment.host, deployment.front
    front.admission = admission
    channel = deployment.channel(f"openloop-{config.seed}")
    method = f"/{service.full_name}/Run"
    rng = random.Random(config.seed)
    blob = bytes(rng.randrange(256) for _ in range(config.payload_bytes))
    result = OpenLoopResult(config=config)
    starts: dict[int, tuple[int, int]] = {}  # call_id -> (lane, start_us)

    def make_done(call_id: int):
        def done(response, status: int) -> None:
            lane, started = starts.pop(call_id)
            if status == StatusCode.OK:
                result.completed[lane] += 1
                result.latencies[lane].append(now_us() - started)
            elif status == StatusCode.RESOURCE_EXHAUSTED:
                result.shed[lane] += 1
            elif status == StatusCode.DEADLINE_EXCEEDED:
                stage, _ = parse_overload_detail(channel.last_error_detail)
                stage = stage or "unknown"
                result.expired[stage] = result.expired.get(stage, 0) + 1
            else:
                result.errors += 1

        return done

    def offer(n: int) -> None:
        for _ in range(n):
            lane = LANE_BULK if rng.random() < config.bulk_fraction else LANE_LATENCY
            result.offered += 1
            # The callback needs its own call_id, which call() assigns;
            # close over a cell filled right after (safe: completions
            # only fire from poll()).
            cell: list[int] = []
            call_id = channel.call(
                method,
                Work(x=result.offered, blob=blob),
                Done,
                lambda response, status, _c=cell: make_done(_c[0])(response, status),
                timeout_us=config.timeout_us or None,
                lane=lane if config.use_lanes else LANE_LATENCY,
            )
            cell.append(call_id)
            starts[call_id] = (lane, now_us())

    clock = ManualClock(1)  # not 0: a 0 deadline word means "none"
    previous = installed_clock()
    install_clock(clock)
    try:
        on_tick = None
        if observer is not None:
            from repro.obs.trace import TraceCollector, attach_channel

            # Attached where build() would attach — after bootstrap,
            # before the first request — on a collector slaved to the
            # simulated clock.
            collector = TraceCollector(clock=lambda: now_us() * 1e-6)
            attach_channel(collector, rdma, stream="rdma",
                           client_component="dpu.rpc", server_component="host.rpc")
            front.trace = collector.recorder("dpu.frontend")
            on_tick = observer(collector)

        def step(tick: int) -> None:
            front.progress(config.capacity_per_tick)
            # The injected host-worker slowdown: inside its window the
            # host pass only runs every ``slow_stride``-th tick (never
            # while draining, whatever the window says).
            slowed = (
                tick < config.ticks
                and config.slow_from <= tick < config.slow_until
                and tick % config.slow_stride != 0
            )
            if not slowed:
                host.progress()
            channel.poll()
            if on_tick is not None:
                on_tick(config.tick_us)
            clock.advance(config.tick_us)
            result.ticks += 1

        for tick in range(config.ticks):
            rate = config.offered_per_tick
            if config.burst_from <= tick < config.burst_until:
                rate = config.burst_per_tick
            offer(_poisson(rng, rate))
            step(tick)
        drained = 0
        while starts and drained < config.drain_ticks:
            step(config.ticks + drained)
            drained += 1
        result.unanswered = len(starts)
    finally:
        install_clock(previous)

    if admission is not None:
        result.admission_stats = admission.stats()
    result.server_expired = dict(front.deadline_expired)
    result.server_expired.update(rdma.server.deadline_expired)
    result.host_parsed = host.host_deserialized
    deployment.close()
    return result
