"""Deterministic open-loop overload workload (docs/OVERLOAD.md).

Closed-loop drivers (``call_sync`` in a loop) cannot overload anything:
the client only offers a new request after the previous one answered, so
offered load self-limits at capacity — the *coordinated omission* trap.
This harness is open-loop: arrivals follow a seeded Poisson process that
keeps offering work whether or not the datapath keeps up, which is the
only way to exercise admission control, deadline expiry, the
degradation ladder, and the offload circuit breaker.

Everything is simulated time on a :class:`~repro.runtime.overload.
ManualClock` — one *tick* is one event-loop pass plus ``tick_us``
microseconds — so identical seeds give identical shed/degrade/recover
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

from repro.runtime.degradation import DegradationManager, standard_ladder
from repro.runtime.overload import (
    LANE_BULK,
    LANE_LATENCY,
    LANE_NAMES,
    CircuitBreaker,
    ManualClock,
    install_clock,
    installed_clock,
    now_us,
)
from repro.xrpc.framing import StatusCode, parse_overload_detail

__all__ = [
    "OpenLoopConfig",
    "OpenLoopResult",
    "TuneConfig",
    "TuneRunResult",
    "default_knobs",
    "percentile",
    "run_autotuned",
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


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(math.ceil(q * len(sorted_values))) - 1)
    return float(sorted_values[max(0, idx)])


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
    degradation_events: list = field(default_factory=list)
    breaker_transitions: list = field(default_factory=list)
    admission_stats: dict = field(default_factory=dict)
    server_expired: dict = field(default_factory=dict)  # stage -> server-side drops
    breaker_fallbacks: int = 0
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
            "degradation_events": len(self.degradation_events),
            "breaker_transitions": list(self.breaker_transitions),
            "breaker_fallbacks": self.breaker_fallbacks,
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
        for ev in self.degradation_events:
            yield f"degrade:{ev.tick}:{ev.action}:{ev.step}"
        for tick, state, reason in self.breaker_transitions:
            yield f"breaker:{tick}:{state}:{reason}"


class _OpenLoop:
    """What :func:`run_open_loop` and :func:`run_autotuned` share, so the
    two harnesses measure the identical datapath under the identical
    traffic: the built offloaded deployment (xRPC client → DPU front end
    → RPC over RDMA → host engine), the seeded arrival stream offered to
    one client channel, and the accounting of every outcome into an
    :class:`OpenLoopResult`.  Each harness brings its own ``step`` — what
    one tick does to the server side is where they differ."""

    def __init__(self, config: OpenLoopConfig, admission=None) -> None:
        from repro.deploy import build

        schema = _openloop_schema()
        self.Work, self.Done = schema["openloop.Work"], schema["openloop.Done"]
        Done = self.Done

        class Servicer:
            def Run(self, request, context):
                return Done(x=request.x)

        service = schema.service("openloop.Pump")
        self.config = config
        self.deployment = build("offloaded", schema, service, Servicer())
        self.deployment.front.admission = admission
        self.channel = self.deployment.channel(f"openloop-{config.seed}")
        self.method = f"/{service.full_name}/Run"
        self.rng = random.Random(config.seed)
        self.blob = bytes(self.rng.randrange(256) for _ in range(config.payload_bytes))
        self.result = OpenLoopResult(config=config)
        self.starts: dict[int, tuple[int, int]] = {}  # call_id -> (lane, start_us)

    def make_done(self, call_id: int):
        result, starts = self.result, self.starts

        def done(response, status: int) -> None:
            lane, started = starts.pop(call_id)
            if status == StatusCode.OK:
                result.completed[lane] += 1
                result.latencies[lane].append(now_us() - started)
            elif status == StatusCode.RESOURCE_EXHAUSTED:
                result.shed[lane] += 1
            elif status == StatusCode.DEADLINE_EXCEEDED:
                stage, _ = parse_overload_detail(self.channel.last_error_detail)
                stage = stage or "unknown"
                result.expired[stage] = result.expired.get(stage, 0) + 1
            else:
                result.errors += 1

        return done

    def offer(self, n: int) -> None:
        config, result = self.config, self.result
        for _ in range(n):
            lane = (
                LANE_BULK
                if self.rng.random() < config.bulk_fraction
                else LANE_LATENCY
            )
            result.offered += 1
            # The callback needs its own call_id, which call()
            # assigns; close over a cell filled right after (safe:
            # completions only fire from poll()).
            cell: list[int] = []
            call_id = self.channel.call(
                self.method,
                self.Work(x=result.offered, blob=self.blob),
                self.Done,
                lambda response, status, _c=cell: self.make_done(_c[0])(
                    response, status
                ),
                timeout_us=config.timeout_us or None,
                lane=lane if config.use_lanes else LANE_LATENCY,
            )
            cell.append(call_id)
            self.starts[call_id] = (lane, now_us())

    def run(self, step) -> None:
        """Offer each tick's seeded arrivals and ``step(tick)``; once
        arrivals stop (``tick >= config.ticks``) keep stepping until
        every call is answered or the drain budget runs out."""
        config = self.config
        for tick in range(config.ticks):
            rate = config.offered_per_tick
            if config.burst_from <= tick < config.burst_until:
                rate = config.burst_per_tick
            self.offer(_poisson(self.rng, rate))
            step(tick)
        drained = 0
        while self.starts and drained < config.drain_ticks:
            step(config.ticks + drained)
            drained += 1
        self.result.unanswered = len(self.starts)

    def finish(self) -> OpenLoopResult:
        """Read the server side's counters into the result and release
        the deployment."""
        deployment, result = self.deployment, self.result
        front = deployment.front
        if front.admission is not None:
            result.admission_stats = front.admission.stats()
        if front.breaker is not None:
            result.breaker_transitions = list(front.breaker.transitions)
        result.server_expired = dict(front.deadline_expired)
        for stage, count in deployment.rdma.server.deadline_expired.items():
            result.server_expired[stage] = count
        result.breaker_fallbacks = front.breaker_fallbacks
        result.host_parsed = deployment.host.host_deserialized
        deployment.close()
        return result


def run_open_loop(
    config: OpenLoopConfig,
    admission=None,
    use_degradation: bool = False,
    breaker: CircuitBreaker | None = None,
    degradation_kwargs: dict | None = None,
) -> OpenLoopResult:
    """Drive the offloaded stack open-loop under ``config``.

    ``admission`` installs an admission controller on the DPU front end;
    ``use_degradation`` arms the standard ladder (pressure from the
    admission controller) including the offload ``breaker`` as its last
    rung — ``degradation_kwargs`` tunes the manager (watermarks,
    hysteresis counts); a ``breaker`` without degradation is installed
    bare on the front end.  All three default off — the uncontrolled
    baseline the benchmark compares against.
    """
    load = _OpenLoop(config, admission)
    rdma, host, front = (load.deployment.rdma, load.deployment.host,
                         load.deployment.front)
    channel, result = load.channel, load.result

    manager = None
    if use_degradation:
        # bulk_batch_ticks is deliberately modest here: the widened
        # response batching inflates the front end's in-flight depth
        # signal (responses parked in the host sbuf still count as
        # outstanding), and a wide setting turns that into a feedback
        # loop that holds the ladder up after pressure clears.
        steps = standard_ladder(
            traced=[front, channel],
            endpoints=[rdma.server],
            bulk_batch_ticks=4,
            breaker=breaker,
            breaker_clock=lambda: front._ticks,
        )
        manager = DegradationManager(
            steps,
            pressure_fn=admission.pressure if admission is not None else None,
            **(degradation_kwargs or {}),
        )
    if breaker is not None:
        front.breaker = breaker

    clock = ManualClock(1)  # not 0: a 0 deadline word means "none"
    previous = installed_clock()
    install_clock(clock)
    try:
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
            if manager is not None:
                manager.on_tick(tick)
            channel.poll()
            clock.advance(config.tick_us)
            result.ticks += 1

        load.run(step)

        if manager is not None:
            manager.recover_all(result.ticks)
            # A reverted breaker rung leaves the breaker half-open; let
            # probe traffic close it so the transition log ends "closed".
            if breaker is not None and breaker.state != CircuitBreaker.CLOSED:
                probes = 0
                while (
                    breaker.state != CircuitBreaker.CLOSED and probes < 64
                ):
                    load.offer(1)
                    for _ in range(32):
                        step(result.ticks)
                        if not load.starts:
                            break
                    probes += 1
            result.degradation_events = list(manager.events)
    finally:
        install_clock(previous)
    return load.finish()

# ---------------------------------------------------------------------------
# The closed loop: the open-loop harness under the autotuner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuneConfig:
    """One autotuned run (docs/AUTOTUNE.md#harness).

    The telemetry window is the controller's decision period; SLO
    targets parameterize both the tracker and the lane-aware score the
    hill climber maximizes.  ``enabled=False`` runs the identical
    harness — same telemetry, same scoring — with the controller
    observing but never stepping, which is how the benchmark measures
    static configs under exactly the tuned run's conditions."""

    window_ticks: int = 64
    warmup_windows: int = 2
    hold_windows: int = 2
    cooldown: int = 4
    tolerance: float = 0.02
    #: latency-lane p99 target in µs (SLO + score penalty reference)
    slo_p99_us: float = 2_500.0
    #: goodput floor in completions/tick; 0 derives 80% of the
    #: sustainable rate min(offered, capacity)
    slo_goodput_floor: float = 0.0
    slo_miss_rate: float = 0.05
    #: error budget: fraction of windows allowed to violate each target
    slo_budget: float = 0.25
    #: score = completion ratio − weight · max(0, p99 − target)/target.
    #: The ratio (window completions / window arrivals, from a hub
    #: source) is the goodput term with the Poisson arrival noise
    #: cancelled: both sides of a probe comparison saw their own
    #: arrivals, so falling behind shows as ratio < 1 while "keeping
    #: up" scores 1.0 regardless of how many arrivals the window drew.
    latency_weight: float = 0.5
    #: continuous tail pressure: a − weight · p99/target term even
    #: *below* the SLO target, so the climb does not stall at "good
    #: enough" latency once the ratio saturates at 1.0 (small enough
    #: that losing real throughput always dominates it)
    tail_weight: float = 0.3
    #: rollback-guard burn floor.  One noisy violating window inside
    #: the tracker's 3-window short horizon burns (1/3)/budget = 1.33x
    #: with the defaults; a violation sustained across a whole probe
    #: burns >= 2.67x.  2.0 separates the two, so Poisson dips cannot
    #: revert a step the score accepted (mirrors the tracker's own
    #: both-horizons paging discipline).
    burn_floor: float = 2.0
    enabled: bool = True
    #: knob name → starting value (the deliberately bad config); knobs
    #: not named start at their ladder's default index
    initial: tuple = ()
    #: which knobs the controller may move (see :func:`default_knobs`)
    knob_names: tuple = ("flush_ticks", "forward_budget", "host_passes",
                        "credits")


@dataclass
class TuneRunResult:
    """Everything one autotuned run produced: the traffic accounting of
    the underlying open-loop run, plus the control loop's artifacts."""

    config: OpenLoopConfig
    tune: TuneConfig
    result: OpenLoopResult
    initial_config: dict = field(default_factory=dict)
    final_config: dict = field(default_factory=dict)
    decisions: list = field(default_factory=list)
    slo_events: list = field(default_factory=list)
    windows: int = 0
    tuner_fingerprint: str = ""
    #: sealed TelemetrySnapshots, oldest first (bounded by the hub)
    snapshots: list = field(default_factory=list)
    hub: object = None
    slo: object = None
    tuner: object = None

    def decision_log(self) -> list[str]:
        return [d.render() for d in self.decisions]

    # -- steady-state metrics (what the convergence gate compares) -------

    def _steady(self, k: int):
        snaps = self.snapshots[-k:] if k else self.snapshots
        return [s for s in snaps if s.ticks]

    def steady_goodput(self, k: int = 8) -> float:
        """Mean completions/tick over the last ``k`` sealed windows —
        the post-convergence throughput, excluding the warmup the tuner
        spent climbing out of the bad initial config."""
        snaps = self._steady(k)
        if not snaps:
            return 0.0
        return sum(s.goodput_per_tick() for s in snaps) / len(snaps)

    def steady_p99_us(self, lane: int, k: int = 8) -> float:
        """Mean per-window p99 (µs) for ``lane`` over the last ``k``
        windows (windows with no lane traffic are skipped)."""
        values = [
            s.lane_p99_us(lane) for s in self._steady(k)
            if s.lane_latency_us.get(lane)
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def summary(self) -> dict:
        out = self.result.summary()
        out.update({
            "windows": self.windows,
            "initial_config": dict(self.initial_config),
            "final_config": dict(self.final_config),
            "decisions": len(self.decisions),
            "steps": sum(1 for d in self.decisions if d.action == "step"),
            "rollbacks": sum(1 for d in self.decisions if d.action == "rollback"),
            "steady_goodput_per_tick": round(self.steady_goodput(), 6),
            "steady_p99_us": {
                LANE_NAMES[lane]: round(self.steady_p99_us(lane), 1)
                for lane in (LANE_LATENCY, LANE_BULK)
            },
            "tuner_fingerprint": self.tuner_fingerprint,
        })
        return out

    def fingerprint_lines(self):
        """Traffic lines + every controller decision + every SLO event:
        the determinism contract the CI smoke job re-runs and compares."""
        yield from self.result.fingerprint_lines()
        for d in self.decisions:
            yield d.fingerprint_line()
        for line in (self.slo.fingerprint_lines() if self.slo else ()):
            yield line


def default_knobs(deployment, cells: dict, initial: dict | None = None):
    """The knob table over a built ``offloaded``
    :class:`~repro.deploy.Deployment` (docs/AUTOTUNE.md#knobs).

    Every knob applies *live* — mid-traffic, no reconnect:

    * ``flush_ticks`` — passes both RDMA endpoints hold a partial block
      (``flush_hold``; 0 seals it every pass);
    * ``forward_budget`` — requests the DPU front end forwards per pass
      (the paper's DPU poller width, §III-C);
    * ``host_passes`` — host engine passes per tick (worker-pool width);
    * ``credits`` — live resize of both endpoints' credit ceilings;
    * ``decode_mode`` / ``encode_mode`` — codec tier on the DPU / host.

    ``cells`` carries the budget knobs to the drive loop; ``initial``
    overrides starting values (the deliberately bad config)."""
    from repro.runtime.autotune import Knob

    initial = dict(initial or {})
    rdma, dpu, host = deployment.rdma, deployment.dpu, deployment.host

    def apply_flush(v):
        for ep in (rdma.client, rdma.server):
            ep.flush_hold = v

    def apply_credits(v):
        for ep in (rdma.client, rdma.server):
            ep.credits.resize(v)

    def apply_decode(v):
        dpu.deserializer.mode = v

    def apply_encode(v):
        host.encode_mode = v

    table = {
        "flush_ticks": ([0, 1, 2, 4, 8, 16], apply_flush, 0),
        "forward_budget": ([1, 2, 3, 4, 6, 8],
                           lambda v: cells.__setitem__("forward_budget", v), 3),
        "host_passes": ([1, 2, 3, 4],
                        lambda v: cells.__setitem__("host_passes", v), 0),
        "credits": ([2, 4, 8, 16, 32], apply_credits, 2),
        "decode_mode": (["interpretive", "generated"], apply_decode, 1),
        "encode_mode": (["interpretive", "generated"], apply_encode, 1),
    }
    knobs = []
    for name, (values, apply, default_index) in table.items():
        index = default_index
        if name in initial:
            index = values.index(initial[name])
        knob = Knob(name, values, apply, initial_index=index)
        knobs.append(knob)
    return knobs


def run_autotuned(
    config: OpenLoopConfig,
    tune: TuneConfig | None = None,
    admission=None,
    observer=None,
) -> TuneRunResult:
    """Drive the offloaded stack open-loop *with the loop closed*: full
    tracing streams into a :class:`~repro.obs.telemetry.TelemetryHub`,
    an SLO tracker judges every window, and the autotuner steps one knob
    per window (``tune.enabled=False`` observes without steering — the
    static-config twin the benchmark compares against).

    ``observer(hub, slo, tuner, snapshot)`` fires after each sealed
    window's control pass — the `repro top --live` refresh hook.

    Deterministic end to end: ManualClock time, seeded arrivals, and a
    trace clock slaved to the simulated clock, so the same seed yields
    the same decision log and the same fingerprint on any machine."""
    from repro.obs.slo import (
        KIND_GOODPUT,
        KIND_LANE_P99,
        KIND_MISS_RATE,
        AnomalyDetector,
        SloSpec,
        SloTracker,
    )
    from repro.obs.telemetry import TelemetryHub
    from repro.obs.trace import Stage, TraceCollector, attach_channel
    from repro.runtime.autotune import AutoTuner, KnobSet

    tune = tune or TuneConfig()
    load = _OpenLoop(config, admission)
    rdma, host, front = (load.deployment.rdma, load.deployment.host,
                         load.deployment.front)
    channel, result = load.channel, load.result

    clock = ManualClock(1)
    previous = installed_clock()
    install_clock(clock)
    try:
        # -- observability wiring: this harness's own, narrower recorder
        #    set (RDMA endpoints + front end feed the hub; attached where
        #    build() would attach — after bootstrap, before the first
        #    request) on a collector slaved to the simulated clock ---------
        collector = TraceCollector(clock=lambda: now_us() * 1e-6)
        attach_channel(collector, rdma, stream="rdma",
                       client_component="dpu.rpc", server_component="host.rpc")
        front.trace = collector.recorder("dpu.frontend")
        hub = TelemetryHub(collector, window_ticks=tune.window_ticks)
        # Arrival counter as a hub source: the score normalizes each
        # window's completions by its own offered arrivals.
        hub.add_source("workload", lambda: {"offered": result.offered})

        goodput_floor = tune.slo_goodput_floor or 0.8 * min(
            config.offered_per_tick, float(config.capacity_per_tick)
        )
        slo = SloTracker(
            [
                SloSpec("latency_p99", KIND_LANE_P99, tune.slo_p99_us,
                        lane=LANE_LATENCY, budget=tune.slo_budget),
                SloSpec("goodput_floor", KIND_GOODPUT, goodput_floor,
                        budget=tune.slo_budget),
                SloSpec("deadline_miss", KIND_MISS_RATE, tune.slo_miss_rate,
                        budget=tune.slo_budget),
            ],
            recorder=collector.recorder("slo"),
            anomaly=AnomalyDetector(),
        )
        hub.add_listener(slo.observe)

        cells = {"forward_budget": config.capacity_per_tick, "host_passes": 1}
        knobs = KnobSet([
            k for k in default_knobs(load.deployment, cells, dict(tune.initial))
            if k.name in tune.knob_names
        ])
        for knob in knobs:
            knob.apply(knob.value)  # realize the starting config

        def score(snapshot) -> float:
            # Lane-aware: the completion ratio pays for latency-lane
            # tail excess, so batching that helps bulk at the fast
            # lane's expense loses.  Ratio, not raw goodput: dividing by
            # the window's own arrivals cancels the Poisson noise that
            # would otherwise drown the latency gradient.
            offered = snapshot.source_deltas.get(
                "workload", {}).get("offered", 0)
            ratio = snapshot.completed / offered if offered else 1.0
            p99 = snapshot.lane_p99_us(LANE_LATENCY)
            excess = max(0.0, p99 - tune.slo_p99_us) / tune.slo_p99_us
            tail = p99 / tune.slo_p99_us
            return (ratio
                    - tune.latency_weight * excess
                    - tune.tail_weight * tail)

        tuner = AutoTuner(
            knobs, score, tolerance=tune.tolerance,
            hold_windows=tune.hold_windows, cooldown=tune.cooldown,
            warmup_windows=tune.warmup_windows, burn_floor=tune.burn_floor,
        )
        tune_recorder = collector.recorder("tuner")

        def on_window(snapshot) -> None:
            # Once arrivals stop the controller is frozen: draining
            # windows say nothing about the offered load it tunes for.
            if not tune.enabled or result.ticks >= config.ticks:
                return
            decision = tuner.observe(snapshot, burn=slo.burn())
            if decision is not None:
                tune_recorder.instant(
                    Stage.TUNE, action=decision.action, knob=decision.knob,
                    old=decision.old_value, new=decision.new_value,
                    score=round(decision.score, 4),
                    burn=round(decision.burn, 3), window=decision.window,
                )

        hub.add_listener(on_window)
        if observer is not None:
            hub.add_listener(lambda snap: observer(hub, slo, tuner, snap))
        initial_config = knobs.config()

        def step(tick: int) -> None:
            front.progress(cells["forward_budget"])
            for _ in range(cells["host_passes"]):
                host.progress()
            channel.poll()
            hub.on_tick(config.tick_us)
            clock.advance(config.tick_us)
            result.ticks += 1

        load.run(step)
    finally:
        install_clock(previous)

    load.finish()
    return TuneRunResult(
        config=config,
        tune=tune,
        result=result,
        initial_config=initial_config,
        final_config=knobs.config(),
        decisions=list(tuner.decisions),
        slo_events=list(slo.events),
        windows=hub.windows_closed,
        tuner_fingerprint=tuner.fingerprint(),
        snapshots=list(hub.snapshots),
        hub=hub,
        slo=slo,
        tuner=tuner,
    )
