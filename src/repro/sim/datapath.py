"""Discrete-event datapath simulator (Fig. 8's experimental rig).

Simulates the steady-state RPC datapath of §VI-C for either deployment:

* ``Scenario.DPU_OFFLOAD`` — the DPU terminates xRPC and deserializes;
  blocks of *deserialized objects* cross PCIe; the host runs only the
  RPC-over-RDMA server work and the (empty) business logic.
* ``Scenario.CPU_BASELINE`` — serialized messages reach the host, whose
  cores run termination + deserialization.

The per-message deserialization census comes from *running the real
arena deserializer* on the actual workload wire bytes
(:meth:`WorkloadProfile.measure`), priced by the calibrated
:class:`~repro.sim.costmodel.CostModel`.  The pipeline — Nagle batching
into blocks, credit-limited blocks in flight, a concurrency window of
outstanding requests, block transfer over a serializing PCIe link, and
response blocks returning — is executed by a discrete-event engine, and
the Prometheus-style monitor declares steady state exactly like the
paper's harness (rate within 1%).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.wire import HEADER_SIZE, PREAMBLE_SIZE
from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.metrics import MetricsRegistry, Scraper, StabilityMonitor
from repro.offload import ArenaDeserializer, DeserializeStats, TypeUniverse
from repro.proto import serialize
from repro.workloads import WorkloadFactory, WorkloadSpec

from .cache import LlcModel
from .clock import EventQueue
from .costmodel import (
    DEFAULT_COST_MODEL,
    DEFAULT_DATAPATH_COSTS,
    Core,
    CostModel,
    DatapathCosts,
)
from .environment import PAPER_ENVIRONMENT, Environment
from .resources import CorePool, Link

__all__ = ["Scenario", "WorkloadProfile", "SimOptions", "DatapathResult", "DatapathSimulator"]


class Scenario(enum.Enum):
    DPU_OFFLOAD = "dpu"
    CPU_BASELINE = "cpu"


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class WorkloadProfile:
    """Measured facts about one workload message, taken from the
    functional implementation (not estimated)."""

    spec: WorkloadSpec
    serialized_size: int
    object_size: int  # arena bytes of the deserialized C++ object
    response_size: int
    stats: DeserializeStats

    @classmethod
    def measure(cls, spec: WorkloadSpec, seed: int = 0x5EED) -> "WorkloadProfile":
        """Serialize one instance and run the real arena deserializer on
        it, recording the exact census and arena footprint."""
        factory = WorkloadFactory(seed)
        msg, wire = factory.build_wire(spec)
        space = AddressSpace("measure")
        space.map(MemoryRegion(0x10_0000, 64 * 1024 * 1024, "scratch"))
        universe = TypeUniverse(space)
        adt = universe.build_adt([factory.schema.pool.message(spec.type_name)])
        stats = DeserializeStats()
        deser = ArenaDeserializer(adt, stats)
        arena = Arena(space, 0x10_0000, 64 * 1024 * 1024)
        deser.deserialize_by_name(spec.type_name, wire, arena)
        empty_response = serialize(factory.schema["bench.Empty"]())
        return cls(
            spec=spec,
            serialized_size=len(wire),
            object_size=arena.used,
            response_size=len(empty_response),
            stats=stats,
        )

    @property
    def compression_ratio(self) -> float:
        """deserialized / serialized — the PCIe inflation factor of
        offloading (§VI-C.3)."""
        return self.object_size / self.serialized_size

    @classmethod
    def blend(cls, profiles: list["WorkloadProfile"], weights: list[float],
              name: str = "mix") -> "WorkloadProfile":
        """Weighted-average profile for a traffic *mix* (trace-driven
        workloads): models steady-state blocks whose messages are drawn
        i.i.d. from the mixture.  Sizes and censuses average linearly, so
        per-block costs and byte counts are exact expectations."""
        if len(profiles) != len(weights) or not profiles:
            raise ValueError("profiles and weights must align and be non-empty")
        total = sum(weights)
        w = [x / total for x in weights]

        def avg(attr):
            return sum(wi * getattr(p, attr) for wi, p in zip(w, profiles))

        stats = DeserializeStats()
        for field_name in stats.__dataclass_fields__:
            setattr(
                stats,
                field_name,
                sum(wi * getattr(p.stats, field_name) for wi, p in zip(w, profiles)),
            )
        spec = WorkloadSpec(name, profiles[0].spec.type_name, 0)
        return cls(
            spec=spec,
            serialized_size=int(round(avg("serialized_size"))),
            object_size=int(round(avg("object_size"))),
            response_size=int(round(avg("response_size"))),
            stats=stats,
        )

    @classmethod
    def measure_mix(cls, mix) -> "WorkloadProfile":
        """Profile a :class:`~repro.workloads.traces.TraceMix`."""
        profiles = [cls.measure(c.spec) for c in mix.components]
        return cls.blend(profiles, [c.weight for c in mix.components], mix.name)


@dataclass(frozen=True)
class SimOptions:
    """Knobs of one simulation run (§VI-A ablations included)."""

    environment: Environment = PAPER_ENVIRONMENT
    costs: DatapathCosts = DEFAULT_DATAPATH_COSTS
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: §III-C: busy polling buys ≈10% throughput but pins cores at 100%.
    busy_poll: bool = False
    #: §VI-A: TCMalloc is worth ≈15% throughput over the system allocator.
    system_allocator: bool = False
    #: §VI-A: -flto is worth ≈10% on the deserialization inner loops.
    lto: bool = True
    duration_s: float = 0.4
    sample_interval_s: float = 0.02
    stability_window: int = 3
    stability_tolerance: float = 0.01

    def effective_costs(self) -> DatapathCosts:
        factor = 1.0
        if self.busy_poll:
            factor /= 1.10
        if self.system_allocator:
            factor *= 1.15
        return self.costs.scaled(host_factor=factor, dpu_factor=factor)

    def deserialize_factor(self) -> float:
        f = 1.0 if self.lto else 1.10
        if self.system_allocator:
            f *= 1.15
        return f


@dataclass
class DatapathResult:
    """What Fig. 8 plots, per scenario and workload."""

    scenario: Scenario
    workload: str
    requests_per_second: float
    bandwidth_gbps: float
    host_cores_used: float
    dpu_cores_used: float
    llc_misses_per_second: float
    stable: bool
    messages_per_block: int
    block_bytes: int
    samples: list[tuple[float, float]] = field(default_factory=list)  # (t, rps)
    credit_stalls: int = 0
    #: request-to-response latency percentiles (seconds), steady state
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.workload:<12} {self.scenario.value:>4}: "
            f"{self.requests_per_second:,.0f} req/s, "
            f"{self.bandwidth_gbps:.1f} Gbps, "
            f"host {self.host_cores_used:.2f} cores, "
            f"dpu {self.dpu_cores_used:.2f} cores"
        )


class DatapathSimulator:
    """Runs one (scenario, workload) cell of Fig. 8."""

    def __init__(
        self,
        profile: WorkloadProfile,
        scenario: Scenario,
        options: SimOptions = SimOptions(),
    ) -> None:
        self.profile = profile
        self.scenario = scenario
        self.options = options
        env = options.environment
        self.client_cfg: ProtocolConfig = env.client_config
        self.server_cfg: ProtocolConfig = env.server_config
        self.costs = options.effective_costs()
        self.model = options.cost_model

        # -- per-message and per-block derived quantities -------------------
        p = profile
        if scenario is Scenario.DPU_OFFLOAD:
            payload = _align8(p.object_size)
        else:
            payload = _align8(p.serialized_size)
        record = HEADER_SIZE + payload
        capacity = max(self.client_cfg.block_size, record + PREAMBLE_SIZE)
        self.messages_per_block = max(1, (capacity - PREAMBLE_SIZE) // record)
        self.block_bytes = PREAMBLE_SIZE + self.messages_per_block * record
        self.response_block_bytes = PREAMBLE_SIZE + self.messages_per_block * (
            HEADER_SIZE + _align8(p.response_size)
        )

        deser_f = options.deserialize_factor()
        self.deser_host_ns = deser_f * self.model.deserialize_ns(p.stats, Core.HOST_X86)
        self.deser_dpu_ns = deser_f * self.model.deserialize_ns(p.stats, Core.DPU_ARM)

        c = self.costs
        B = self.messages_per_block
        if scenario is Scenario.DPU_OFFLOAD:
            self.dpu_block_s = 1e-9 * (
                B * (c.dpu_proto_msg_ns + self.deser_dpu_ns + c.dpu_byte_ns * p.object_size)
                + c.dpu_block_ns
            )
            self.dpu_resp_s = 1e-9 * (B * c.dpu_response_msg_ns + c.dpu_block_ns / 2)
            self.host_block_s = 1e-9 * (
                B * (c.host_proto_msg_ns + c.host_byte_ns * p.object_size
                     + c.host_response_msg_ns)
                + c.host_block_ns
            )
        else:
            self.dpu_block_s = 0.0
            self.dpu_resp_s = 0.0
            self.host_block_s = 1e-9 * (
                B * (
                    c.host_proto_msg_ns
                    + c.host_xrpc_msg_ns
                    + self.deser_host_ns
                    + c.host_byte_ns * p.serialized_size
                    + c.host_response_msg_ns
                )
                + c.host_block_ns
            )

        # -- resources --------------------------------------------------------
        self.dpu_pool = CorePool("dpu", env.client_config.threads)
        self.host_pool = CorePool("host", env.server_config.threads)
        self.link = Link("pcie", env.pcie_gbps)
        self.llc = LlcModel(env.server.l3_bytes)

        # -- protocol state ----------------------------------------------------
        # Credits and concurrency are PER CONNECTION (§VI-A), and the DPU
        # runs one connection per poller thread (§III-C), so the fleet-wide
        # windows scale with the thread count.
        self.connections = env.client_config.threads
        self.credits = self.client_cfg.credits * self.connections
        self.total_concurrency = self.client_cfg.concurrency * self.connections
        # Event batching: simulate "jobs" of several consecutive blocks to
        # bound the event count.  Purely a simulation-speed device — all
        # costs, bytes and credits scale linearly, so steady-state rates
        # and utilizations are unchanged.  K is chosen so that at least
        # ~128 jobs stay in flight (plenty of pipeline overlap for the
        # core pools).
        blocks_in_flight_cap = min(
            self.credits,
            max(1, self.total_concurrency // self.messages_per_block),
        )
        self.block_batch = max(1, blocks_in_flight_cap // 128)
        self.credits -= self.credits % self.block_batch
        self.outstanding = 0
        self.blocks_in_flight = 0
        self.completed = 0
        self.credit_stalls = 0  # true starvation: empty pipeline at 0 credits
        self._latencies: list[float] = []  # per-job request->response times
        #: StageRecorder (repro.obs): per-job stage events in *simulated*
        #: seconds (explicit ts from the event queue's clock).  None keeps
        #: the fig8 hot path untouched.
        self.trace = None

        # -- engine-stepped run state (armed by begin()) ----------------------
        self._queue: EventQueue | None = None
        self._t = 0.0
        self._samples: list[tuple[float, float]] = []
        self._stable = False

        # -- metrics ------------------------------------------------------------
        self.registry = MetricsRegistry()
        self.m_requests = self.registry.counter(
            "ror_requests_total", "requests completed"
        )
        self.m_bytes = self.registry.counter("ror_pcie_bytes_total", "bytes over PCIe")
        self.m_credits = self.registry.gauge("ror_credits", "credits available")
        self.scraper = Scraper(self.registry)
        self.monitor = StabilityMonitor(
            options.stability_window, options.stability_tolerance
        )

    # -- pipeline ---------------------------------------------------------------

    def _issue_blocks(self, q: EventQueue) -> None:
        K = self.block_batch
        job_msgs = self.messages_per_block * K
        while self.outstanding + job_msgs <= self.total_concurrency and self.credits >= K:
            self.credits -= K
            self.outstanding += job_msgs
            self.blocks_in_flight += K
            self._launch_job(q)
        if (
            self.credits < K
            and self.blocks_in_flight == 0
            and self.outstanding + job_msgs <= self.total_concurrency
        ):
            # The whole pipeline drained while credits were exhausted —
            # the pathological state §IV-C's sizing rule exists to avoid.
            self.credit_stalls += 1

    def _launch_job(self, q: EventQueue) -> None:
        """One job = ``block_batch`` consecutive blocks through the
        pipeline."""
        K = self.block_batch
        job_msgs = self.messages_per_block * K
        # Mean-preserving ±1% service-time spread (golden-ratio sequence):
        # real datapaths have per-block jitter; a perfectly deterministic
        # pipeline phase-locks with the sampling clock and aliases the
        # rate series.
        self._job_seq = getattr(self, "_job_seq", 0) + 1
        jitter = 1.0 + 0.02 * (((self._job_seq * 0.6180339887498949) % 1.0) - 0.5)
        dpu_s = self.dpu_block_s * K * jitter
        dpu_resp_s = self.dpu_resp_s * K * jitter
        host_s = self.host_block_s * K * jitter
        wire_bytes = self.block_bytes * K
        resp_bytes = self.response_block_bytes * K

        issued_at = q.now
        ctx = None
        if self.trace is not None:
            ctx = self.trace.context(job=self._job_seq, blocks=K,
                                     messages=job_msgs)
            ctx.tid = ("sim", self._job_seq)
            self.trace.event(ctx, "enqueue", ts=q.now, bytes=wire_bytes)

        def complete() -> None:
            self.completed += job_msgs
            self.outstanding -= job_msgs
            self.credits += K
            self.blocks_in_flight -= K
            self.m_requests.inc(job_msgs)
            self._latencies.append(q.now - issued_at)
            if ctx is not None:
                self.trace.event(ctx, "response_deliver", ts=q.now)
            self._issue_blocks(q)

        # Bytes are counted at *delivery* time (the downstream stage), so
        # rate sampling reflects what actually crossed the link, not what
        # was queued on it.
        if self.scenario is Scenario.DPU_OFFLOAD:

            def stage_dpu() -> None:
                if ctx is not None:
                    self.trace.event(ctx, "deserialize", ts=q.now, dur=dpu_s)
                done = self.dpu_pool.submit(q.now, dpu_s)
                q.at(done, stage_link_out)

            def stage_link_out() -> None:
                if ctx is not None:
                    self.trace.event(ctx, "transmit", ts=q.now, bytes=wire_bytes)
                done = self.link.transfer(q.now, wire_bytes)
                q.at(done, stage_host)

            def stage_host() -> None:
                self.m_bytes.inc(wire_bytes)
                if ctx is not None:
                    self.trace.event(ctx, "dispatch", ts=q.now, dur=host_s)
                done = self.host_pool.submit(q.now, host_s)
                q.at(done, stage_link_back)

            def stage_link_back() -> None:
                if ctx is not None:
                    self.trace.event(ctx, "response_emit", ts=q.now,
                                     bytes=resp_bytes)
                done = self.link.transfer(q.now, resp_bytes, direction=1)
                q.at(done, stage_dpu_complete)

            def stage_dpu_complete() -> None:
                self.m_bytes.inc(resp_bytes)
                done = self.dpu_pool.submit(q.now, dpu_resp_s)
                q.at(done, complete)

            q.schedule(0.0, stage_dpu)
        else:

            def stage_link_in() -> None:
                if ctx is not None:
                    self.trace.event(ctx, "transmit", ts=q.now, bytes=wire_bytes)
                done = self.link.transfer(q.now, wire_bytes)
                q.at(done, stage_host)

            def stage_host() -> None:
                self.m_bytes.inc(wire_bytes)
                if ctx is not None:
                    self.trace.event(ctx, "dispatch", ts=q.now, dur=host_s)
                done = self.host_pool.submit(q.now, host_s)
                q.at(done, stage_link_back)

            def stage_link_back() -> None:
                if ctx is not None:
                    self.trace.event(ctx, "response_emit", ts=q.now,
                                     bytes=resp_bytes)
                done = self.link.transfer(q.now, resp_bytes, direction=1)
                q.at(done, lambda: (self.m_bytes.inc(resp_bytes), complete()))

            q.schedule(0.0, stage_link_in)

    # -- run -----------------------------------------------------------------------

    def begin(self) -> "DatapathSimulator":
        """Arm the cell for stepping: fresh event queue, warm pipeline.
        Called by :meth:`run`; call directly to single-step with
        :meth:`progress` (deterministic operation for tests)."""
        self._queue = EventQueue()
        self._t = 0.0
        self._samples = []
        self._stable = False
        self._issue_blocks(self._queue)
        return self

    def pending(self) -> bool:
        """Simulated wall-clock remaining (Pollable drain protocol)."""
        return self._t < self.options.duration_s

    def progress(self, budget: int | None = None) -> int:
        """One sample interval of simulated time as one engine poll:
        advance the DES to the next scrape instant, scrape, update the
        stability verdict.  Returns the requests completed in the
        interval — the work count the engine's idle tracking feeds on."""
        if self._queue is None:
            self.begin()
        if not self.pending():
            return 0
        before = self.completed
        self._t += self.options.sample_interval_s
        self._queue.run_until(self._t)
        self.m_credits.set(self.credits)
        self.scraper.scrape(self._t)
        series = self.scraper.get("ror_requests_total")
        if len(series) >= 2:
            self._samples.append((self._t, series.instant_rate()))
        if self.monitor.is_stable(series):
            self._stable = True
        return self.completed - before

    def run(self) -> DatapathResult:
        """Run the cell to completion on a progress engine of its own,
        whose poll/work counters this cell's registry reads.  The
        simulator is itself a pollable; single-stepped operation for
        tests is ``sim.progress()`` by hand.
        """
        from repro.runtime import ProgressEngine

        opts = self.options
        self.begin()

        engine = ProgressEngine(name="sim")
        self.registry.add_collector(engine.metrics.collect)
        engine.register(
            self, name=f"sim.{self.scenario.value}.{self.profile.spec.name}"
        )
        engine.run(
            max_iters=int(opts.duration_s / opts.sample_interval_s) + 2,
            until=lambda: not self.pending(),
        )
        engine.unregister(self)

        samples = self._samples
        stable = self._stable
        series = self.scraper.get("ror_requests_total")
        elapsed = series.times[-1]
        # Steady-state rates from the stable tail (paper: instant rate of
        # increase from the last two data points).
        rps = series.instant_rate()
        bw_series = self.scraper.get("ror_pcie_bytes_total")
        bandwidth_gbps = bw_series.instant_rate() * 8 / 1e9

        host_cores = self.host_pool.utilization(elapsed)
        dpu_cores = self.dpu_pool.utilization(elapsed)
        if opts.busy_poll:
            # Busy pollers burn their whole allocation (§III-C).
            host_cores = float(self.host_pool.cores)
            if self.scenario is Scenario.DPU_OFFLOAD:
                dpu_cores = float(self.dpu_pool.cores)

        touched = (
            self.profile.object_size
            if self.scenario is Scenario.DPU_OFFLOAD
            else self.profile.serialized_size + self.profile.object_size
        )
        working_set = (
            self.client_cfg.send_buffer_size + self.server_cfg.send_buffer_size
        )
        misses_msg = self.llc.misses_per_message(
            touched, working_set, opts.system_allocator
        )
        # Latency percentiles over the steady-state tail (drop the warm-up
        # half where the pipeline was still filling).
        tail = sorted(self._latencies[len(self._latencies) // 2 :])
        p50 = tail[len(tail) // 2] if tail else 0.0
        p99 = tail[min(len(tail) - 1, int(len(tail) * 0.99))] if tail else 0.0
        return DatapathResult(
            scenario=self.scenario,
            workload=self.profile.spec.name,
            requests_per_second=rps,
            bandwidth_gbps=bandwidth_gbps,
            host_cores_used=host_cores,
            dpu_cores_used=dpu_cores,
            llc_misses_per_second=misses_msg * rps,
            stable=stable,
            messages_per_block=self.messages_per_block,
            block_bytes=self.block_bytes,
            samples=samples,
            credit_stalls=self.credit_stalls,
            latency_p50_s=p50,
            latency_p99_s=p99,
        )


def run_cell(spec: WorkloadSpec, scenario: Scenario) -> DatapathResult:
    """Convenience: measure the workload and run one simulation cell
    with the default :class:`SimOptions`."""
    profile = WorkloadProfile.measure(spec)
    return DatapathSimulator(profile, scenario, SimOptions()).run()
