"""Library-level instrumentation adapters (§VI).

"The RPC over RDMA library is directly instrumentalized at the library
level with a Prometheus client ... This permits the gathering of
statistics independently of the scenario or application."

:class:`EndpointExporter` mirrors an endpoint's
:class:`~repro.core.endpoint.EndpointStats` (plus credits and allocator
occupancy) into a registry; call :meth:`update` before each scrape — the
equivalent of the client's collect callback.

:class:`OverloadExporter` does the same for the overload-control
subsystem (docs/OVERLOAD.md): per-stage deadline drops, per-lane
admission outcomes, circuit-breaker state, degradation level, and the
client retry budget.  Every source is optional, so one exporter covers
any deployment shape.
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry
from repro.runtime.overload import LANE_NAMES, CircuitBreaker

__all__ = ["EndpointExporter", "OverloadExporter"]


_COUNTERS = (
    ("requests_sent", "requests enqueued by the client"),
    ("responses_received", "responses delivered to continuations"),
    ("requests_received", "requests dispatched to handlers"),
    ("responses_sent", "responses enqueued by the server"),
    ("blocks_sent", "protocol blocks transmitted"),
    ("blocks_received", "protocol blocks received"),
    ("bytes_sent", "payload bytes transmitted"),
    ("bytes_received", "payload bytes received"),
    ("handler_errors", "handler faults turned into RPC errors"),
)


class EndpointExporter:
    """Exports one endpoint's statistics under a name prefix."""

    def __init__(self, registry: MetricsRegistry, endpoint, prefix: str) -> None:
        self.endpoint = endpoint
        self._counters = {}
        # Last raw value seen per field: endpoint stats CAN regress — a
        # connection reset or a swapped-in endpoint object restarts them
        # at zero — and the exported counter must absorb that by
        # re-basing, never by raising mid-scrape.
        self._raw: dict[str, float] = {}
        self.resets_detected = 0
        for field, help_text in _COUNTERS:
            self._counters[field] = registry.counter(
                f"{prefix}_{field}_total", help_text
            )
        self._credits = registry.gauge(f"{prefix}_credits", "credits available")
        self._credit_low = registry.gauge(
            f"{prefix}_credits_low_watermark", "lowest credit level observed"
        )
        self._live_blocks = registry.gauge(
            f"{prefix}_sbuf_live_blocks", "unrecycled blocks in the send buffer"
        )
        self._sbuf_bytes = registry.gauge(
            f"{prefix}_sbuf_live_bytes", "bytes held by unrecycled blocks"
        )

    def update(self) -> None:
        """Refresh all exported values from the endpoint."""
        stats = self.endpoint.stats
        for field, counter in self._counters.items():
            value = getattr(stats, field)
            last = self._raw.get(field, 0.0)
            if value < last:
                # The underlying stat restarted (endpoint reset/replaced):
                # re-base on the new epoch — everything since the restart
                # is new growth on top of the monotone exported counter.
                self.resets_detected += 1
                delta = value
            else:
                delta = value - last
            self._raw[field] = value
            if delta:
                counter.inc(delta)
        self._credits.set(self.endpoint.credits.available)
        self._credit_low.set(self.endpoint.credits.low_watermark)
        self._live_blocks.set(self.endpoint.allocator.live_count)
        self._sbuf_bytes.set(self.endpoint.allocator.bytes_live)


_BREAKER_STATE_CODE = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


class OverloadExporter:
    """Exports the overload-control subsystem under a name prefix.

    ``stages`` is any iterable of objects carrying a ``deadline_expired``
    mapping of stage name -> drop count (the server endpoint, the xRPC
    server, the DPU front end; the front door among them also carries
    ``request_faults``, status -> count); ``admissions`` any iterable of
    :class:`~repro.runtime.overload.AdmissionController`.  Absent sources
    export nothing, so the same class serves every deployment shape.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        prefix: str = "overload",
        *,
        stages=(),
        admissions=(),
        breaker=None,
        degradation=None,
        budget=None,
    ) -> None:
        self.stages = list(stages)
        self.admissions = list(admissions)
        self.breaker = breaker
        self.degradation = degradation
        self.budget = budget
        # Labelled-counter re-base state, same contract as
        # EndpointExporter: sources can restart at zero mid-run.
        self._raw: dict[tuple[str, str], float] = {}
        self._deadline = registry.counter(
            f"{prefix}_deadline_expired_total",
            "requests dropped with an expired deadline, by datapath stage",
            label_names=("stage",),
        )
        self._faults = registry.counter(
            f"{prefix}_request_faults_total",
            "failed requests answered through the outcome table, by status code",
            label_names=("status",),
        )
        self._admitted = registry.counter(
            f"{prefix}_admitted_total",
            "requests admitted by admission control, by priority lane",
            label_names=("lane",),
        )
        self._shed = registry.counter(
            f"{prefix}_shed_total",
            "requests shed by admission control, by priority lane",
            label_names=("lane",),
        )
        self._breaker_state = registry.gauge(
            f"{prefix}_breaker_state",
            "offload circuit breaker state (0 closed, 1 half-open, 2 open)",
        )
        self._breaker_trips = registry.counter(
            f"{prefix}_breaker_trips_total", "circuit breaker trips"
        )
        self._breaker_probes = registry.counter(
            f"{prefix}_breaker_probes_total", "half-open probe requests admitted"
        )
        self._breaker_denied = registry.counter(
            f"{prefix}_breaker_denied_total",
            "offload requests denied by the breaker (host-parse fallback)",
        )
        self._level = registry.gauge(
            f"{prefix}_degradation_level", "current degradation ladder level"
        )
        self._tokens = registry.gauge(
            f"{prefix}_retry_tokens", "retry-budget tokens remaining"
        )
        self._retries_spent = registry.counter(
            f"{prefix}_retries_spent_total", "retries charged to the budget"
        )
        self._retries_suppressed = registry.counter(
            f"{prefix}_retries_suppressed_total",
            "retries suppressed by an exhausted budget",
        )

    def _bump(self, key: tuple[str, str], value: float, child) -> None:
        last = self._raw.get(key, 0.0)
        delta = value if value < last else value - last
        self._raw[key] = value
        if delta:
            child.inc(delta)

    def update(self) -> None:
        """Refresh all exported values from the attached sources."""
        totals: dict[str, float] = {}
        for source in self.stages:
            for stage, count in source.deadline_expired.items():
                totals[stage] = totals.get(stage, 0.0) + count
            for status, count in getattr(source, "request_faults", {}).items():
                self._bump(("faults", str(status)), count, self._faults.labels(str(status)))
        for stage, value in totals.items():
            self._bump(("deadline", stage), value,
                       self._deadline.labels(stage))
        admitted: dict[int, float] = {}
        shed: dict[int, float] = {}
        for ctl in self.admissions:
            for lane, count in ctl.admitted.items():
                admitted[lane] = admitted.get(lane, 0.0) + count
            for lane, count in ctl.shed.items():
                shed[lane] = shed.get(lane, 0.0) + count
        for lane, value in admitted.items():
            name = LANE_NAMES.get(lane, str(lane))
            self._bump(("admitted", name), value,
                       self._admitted.labels(name))
        for lane, value in shed.items():
            name = LANE_NAMES.get(lane, str(lane))
            self._bump(("shed", name), value,
                       self._shed.labels(name))
        if self.breaker is not None:
            self._breaker_state.set(
                _BREAKER_STATE_CODE.get(self.breaker.state, -1)
            )
            self._bump(("breaker", "trips"),
                       self.breaker.trips, self._breaker_trips)
            self._bump(("breaker", "probes"),
                       self.breaker.probes, self._breaker_probes)
            self._bump(("breaker", "denied"),
                       self.breaker.denied, self._breaker_denied)
        if self.degradation is not None:
            self._level.set(self.degradation.level)
        if self.budget is not None:
            self._tokens.set(self.budget.tokens)
            self._bump(("budget", "spent"),
                       self.budget.spent, self._retries_spent)
            self._bump(("budget", "suppressed"),
                       self.budget.suppressed, self._retries_suppressed)
