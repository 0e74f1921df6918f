"""Overload-control primitives (docs/OVERLOAD.md).

The datapath's defense against *load* failure, complementing the fault
tolerance of :mod:`repro.core.recovery`: when offered traffic exceeds
DPU/host capacity, queues grow without bound and every request's latency
explodes together.  This module holds the mechanism layer — a shared
microsecond clock, the packed deadline word requests carry on the wire,
the queue-depth admission controller, the client-side retry budget, and
the circuit breaker on the DPU offload path.  Policy (when to shed)
lives with the servers that hold an admission controller.

Like the rest of the ``runtime`` package this module imports nothing
from the rest of ``repro`` but the metric primitives — every layer above
imports *it*.  :func:`overload_families` reads the whole subsystem's
counters at scrape time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from repro.metrics.registry import Family, counter, gauge

__all__ = [
    "ManualClock",
    "install_clock",
    "installed_clock",
    "now_us",
    "LANE_LATENCY",
    "LANE_BULK",
    "LANE_NAMES",
    "pack_deadline",
    "unpack_deadline",
    "deadline_expired",
    "AdmissionDecision",
    "ADMIT",
    "AdmissionController",
    "QueueDepthAdmission",
    "RetryBudget",
    "CircuitBreaker",
    "overload_families",
]


# ---------------------------------------------------------------------------
# The overload clock
#
# Deadlines are *absolute* microsecond timestamps so they survive every
# hop (client -> DPU -> host) without per-stage re-arming.  On Linux
# CLOCK_MONOTONIC is machine-wide, so the default clock is coherent
# across the shm deployment's OS processes too.  Tests, the fault
# campaign, and the benchmarks install a ManualClock for determinism.

class ManualClock:
    """Deterministic microsecond clock, advanced explicitly."""

    def __init__(self, start_us: int = 0) -> None:
        self._now = int(start_us)

    def now_us(self) -> int:
        return self._now

    def advance(self, us: int) -> int:
        if us < 0:
            raise ValueError("clock cannot go backwards")
        self._now += int(us)
        return self._now


_CLOCK: ManualClock | None = None


def install_clock(clock: ManualClock | None) -> None:
    """Install a process-wide overload clock (None restores the real
    monotonic clock)."""
    global _CLOCK
    _CLOCK = clock


def installed_clock() -> ManualClock | None:
    return _CLOCK


def now_us() -> int:
    """Current overload-clock time in microseconds."""
    if _CLOCK is not None:
        return _CLOCK.now_us()
    return time.monotonic_ns() // 1000


# ---------------------------------------------------------------------------
# Priority lanes and the packed deadline word
#
# One 64-bit word carries both the absolute deadline and the request's
# priority lane: bit 0 is the lane, bits 1..63 the deadline in µs.  A
# word of 0 means "no deadline, latency lane" — the legacy encoding, so
# undecorated requests behave exactly as before.

#: small latency-critical RPCs — bypass shed decisions aimed at bulk
LANE_LATENCY = 0
#: throughput traffic — first target of admission control and batching
LANE_BULK = 1

LANE_NAMES = {LANE_LATENCY: "latency", LANE_BULK: "bulk"}


def pack_deadline(deadline_us: int, lane: int = LANE_LATENCY) -> int:
    """Pack an absolute deadline + lane into the wire word."""
    if deadline_us < 0:
        raise ValueError("deadline must be non-negative")
    if lane not in (LANE_LATENCY, LANE_BULK):
        raise ValueError(f"unknown lane {lane}")
    return (int(deadline_us) << 1) | lane


def unpack_deadline(word: int) -> tuple[int, int]:
    """Inverse of :func:`pack_deadline`: (deadline_us, lane).  A zero
    word decodes to (0, LANE_LATENCY) — no deadline."""
    return word >> 1, word & 1


def deadline_expired(word: int, now: int | None = None) -> bool:
    """Whether the packed word's deadline has passed (0 = never)."""
    deadline = word >> 1
    if not deadline:
        return False
    return (now_us() if now is None else now) >= deadline


# ---------------------------------------------------------------------------
# Admission control


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.  ``retry_after_ticks`` is the
    server's hint (in the client's drive-iteration unit) carried inside
    the RESOURCE_EXHAUSTED detail."""

    admit: bool
    retry_after_ticks: int = 0
    reason: str = ""


ADMIT = AdmissionDecision(True)


class AdmissionController:
    """What a server asks before serving a request.  Servers call
    :meth:`decide` once per request before doing any decode work;
    :class:`QueueDepthAdmission` implements :meth:`admit`.  The base
    class admits everything (a counting pass-through, and the seam a
    test substitutes a scripted controller through)."""

    def __init__(self) -> None:
        self.admitted = {LANE_LATENCY: 0, LANE_BULK: 0}
        self.shed = {LANE_LATENCY: 0, LANE_BULK: 0}

    def admit(self, lane: int, depth: int) -> AdmissionDecision:
        return ADMIT

    def decide(self, lane: int, depth: int) -> AdmissionDecision:
        decision = self.admit(lane, depth)
        if decision.admit:
            self.admitted[lane] += 1
        else:
            self.shed[lane] += 1
        return decision

    def pressure(self) -> float:
        """Normalized load signal in [0, ~inf): 1.0 = at the shed
        threshold."""
        return 0.0

    def stats(self) -> dict:
        return {
            "admitted": dict(self.admitted),
            "shed": dict(self.shed),
        }


class QueueDepthAdmission(AdmissionController):
    """Classic bounded-queue admission: shed bulk traffic once the
    instantaneous queue depth reaches ``max_depth``; the latency lane is
    only shed at ``hard_factor`` times that, so small latency-critical
    RPCs keep flowing while bulk absorbs the shedding.

    ``drain_per_tick`` sizes the retry-after hint: a queue ``d`` deep
    over the limit drains in about ``d / drain_per_tick`` event-loop
    passes."""

    def __init__(
        self,
        max_depth: int = 64,
        hard_factor: int = 4,
        drain_per_tick: int = 8,
    ) -> None:
        super().__init__()
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self.hard_factor = hard_factor
        self.drain_per_tick = max(1, drain_per_tick)
        self._last_depth = 0

    def admit(self, lane: int, depth: int) -> AdmissionDecision:
        self._last_depth = depth
        limit = self.max_depth
        if lane == LANE_LATENCY:
            limit *= self.hard_factor
        if depth < limit:
            return ADMIT
        hint = max(1, (depth - limit) // self.drain_per_tick + 1)
        return AdmissionDecision(False, hint, f"queue depth {depth} >= {limit}")

    def pressure(self) -> float:
        return self._last_depth / self.max_depth


# ---------------------------------------------------------------------------
# Client-side retry budget (token bucket)


class RetryBudget:
    """Per-channel token bucket bounding retry amplification (the gRPC
    retry-throttling scheme): every retry spends one token, every
    successful call refills ``refill_per_success``.  With capacity C and
    refill r the steady-state retry rate cannot exceed r× the success
    rate, so a failing server sees at most a (1+r) amplification instead
    of (1 + max_retries)."""

    def __init__(
        self,
        capacity: float = 10.0,
        refill_per_success: float = 0.1,
        cost: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self.refill_per_success = float(refill_per_success)
        self.cost = float(cost)
        self.spent = 0
        self.suppressed = 0

    def on_success(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.refill_per_success)

    def try_spend(self) -> bool:
        """Take one retry token; False (and counted as suppressed) when
        the budget is exhausted — the caller must not retry."""
        if self.tokens >= self.cost:
            self.tokens -= self.cost
            self.spent += 1
            return True
        self.suppressed += 1
        return False


# ---------------------------------------------------------------------------
# Circuit breaker


class CircuitBreaker:
    """Three-state circuit breaker for the DPU offload path.

    CLOSED passes everything.  OPEN (tripped) denies — the front end
    routes denied requests through the host-parse fallback.  HALF_OPEN
    admits up to ``max_probes`` in-flight probe requests; ``probe_goal``
    consecutive successes close the breaker, any probe failure re-trips
    it.  Time is whatever monotonically increasing unit the caller
    passes (the front end uses its event-loop pass counter)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_ticks: int = 256,
        probe_goal: int = 3,
        max_probes: int = 2,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_ticks = recovery_ticks
        self.probe_goal = probe_goal
        self.max_probes = max_probes
        self.state = self.CLOSED
        self.trips = 0
        self.probes = 0
        self.denied = 0
        self._failures = 0
        self._probe_successes = 0
        self._probes_in_flight = 0
        self._opened_at = 0
        #: (tick, new_state, reason) transition log — the campaign
        #: fingerprints this to prove trip -> half-open -> close.
        self.transitions: list[tuple[int, str, str]] = []

    def _transition(self, now: int, state: str, reason: str) -> None:
        self.state = state
        self.transitions.append((now, state, reason))

    def allow(self, now: int) -> bool:
        """Whether the offload path may carry one more request."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self._opened_at >= self.recovery_ticks:
                self.begin_half_open(now, reason="recovery timer")
            else:
                self.denied += 1
                return False
        # HALF_OPEN: admit a bounded number of concurrent probes.
        if self._probes_in_flight < self.max_probes:
            self._probes_in_flight += 1
            self.probes += 1
            return True
        self.denied += 1
        return False

    def trip(self, now: int, reason: str = "manual") -> None:
        if self.state != self.OPEN:
            self.trips += 1
            self._transition(now, self.OPEN, reason)
        self._opened_at = now
        self._failures = 0
        self._probe_successes = 0
        self._probes_in_flight = 0

    def begin_half_open(self, now: int, reason: str = "manual") -> None:
        if self.state != self.HALF_OPEN:
            self._transition(now, self.HALF_OPEN, reason)
        self._probe_successes = 0
        self._probes_in_flight = 0

    def record_success(self, now: int = 0) -> None:
        if self.state == self.HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.probe_goal:
                self._transition(now, self.CLOSED, "probes healthy")
                self._failures = 0
        elif self.state == self.CLOSED:
            self._failures = 0

    def record_failure(self, now: int) -> None:
        if self.state == self.HALF_OPEN:
            self.trip(now, reason="probe failed")
        elif self.state == self.CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self.trip(now, reason=f"{self._failures} consecutive failures")

    def stats(self) -> dict:
        return {
            "state": self.state,
            "trips": self.trips,
            "probes": self.probes,
            "denied": self.denied,
        }


# ---------------------------------------------------------------------------
# Metric families


_BREAKER_STATE_CODE = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


def overload_families(stages=(), admissions=(), breaker=None, budgets=()):
    """The overload-control subsystem's metric families, read now.

    ``stages`` is any iterable of objects carrying a ``deadline_expired``
    mapping of stage name -> drop count (the server endpoint, the front
    door — which also carries ``request_faults``, status -> count);
    ``admissions`` any iterable of :class:`AdmissionController`;
    ``budgets`` any iterable of :class:`RetryBudget`, summed.  Counts are
    summed across sources.  An absent source reads zero, so every
    deployment shape yields the same families."""
    deadline, faults, admitted, shed = Counter(), Counter(), Counter(), Counter()
    for source in stages:
        deadline.update(source.deadline_expired)
        faults.update(getattr(source, "request_faults", {}))
    for ctl in admissions:
        admitted.update(ctl.admitted)
        shed.update(ctl.shed)
    yield Family("overload_deadline_expired_total",
                 "requests dropped with an expired deadline, by datapath stage",
                 "counter", ("stage",), {(stage,): n for stage, n in deadline.items()})
    yield Family("overload_request_faults_total",
                 "failed requests answered through the outcome table, by status code",
                 "counter", ("status",), {(str(status),): n for status, n in faults.items()})
    yield Family("overload_admitted_total",
                 "requests admitted by admission control, by priority lane",
                 "counter", ("lane",),
                 {(LANE_NAMES.get(lane, str(lane)),): n for lane, n in admitted.items()})
    yield Family("overload_shed_total",
                 "requests shed by admission control, by priority lane",
                 "counter", ("lane",),
                 {(LANE_NAMES.get(lane, str(lane)),): n for lane, n in shed.items()})
    yield gauge("overload_breaker_state",
                "offload circuit breaker state (0 closed, 1 half-open, 2 open)",
                _BREAKER_STATE_CODE.get(breaker.state, -1) if breaker is not None else 0)
    yield counter("overload_breaker_trips_total", "circuit breaker trips",
                  breaker.trips if breaker is not None else 0)
    yield counter("overload_breaker_probes_total", "half-open probe requests admitted",
                  breaker.probes if breaker is not None else 0)
    yield counter("overload_breaker_denied_total",
                  "offload requests denied by the breaker (host-parse fallback)",
                  breaker.denied if breaker is not None else 0)
    yield gauge("overload_retry_tokens", "retry-budget tokens remaining",
                sum(b.tokens for b in budgets))
    yield counter("overload_retries_spent_total", "retries charged to the budget",
                  sum(b.spent for b in budgets))
    yield counter("overload_retries_suppressed_total",
                  "retries suppressed by an exhausted budget",
                  sum(b.suppressed for b in budgets))
