"""The unified progress-engine runtime.

One event loop for the whole datapath: components implement the
:class:`Pollable` protocol (``progress(budget) -> work_done``) and
register with a :class:`ProgressEngine`, which polls them in
registration order and counts every poll; an endpoint's pass seals a
partial block once it has waited the endpoint's ``flush_hold`` passes.
See docs/RUNTIME.md.

This package deliberately imports nothing from the rest of ``repro`` at
module level but the metric primitives (:mod:`repro.metrics.registry`,
which import nothing themselves) — every layer (core, xrpc, sim) imports
*it*, so it must sit at the bottom of the dependency stack.
"""

from .engine import EngineError, ProgressEngine, Registration
from .metrics import EngineMetrics, PollableMetrics
from .overload import (
    LANE_BULK,
    LANE_LATENCY,
    AdmissionController,
    AdmissionDecision,
    CircuitBreaker,
    ManualClock,
    QueueDepthAdmission,
    RetryBudget,
    install_clock,
    now_us,
    pack_deadline,
    unpack_deadline,
)
from .pollable import FnPollable, Pollable
from .supervisor import EngineSupervisor, SupervisorEvent

__all__ = [
    "EngineError",
    "ProgressEngine",
    "Registration",
    "EngineMetrics",
    "PollableMetrics",
    "FnPollable",
    "Pollable",
    "EngineSupervisor",
    "SupervisorEvent",
    "LANE_BULK",
    "LANE_LATENCY",
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "ManualClock",
    "QueueDepthAdmission",
    "RetryBudget",
    "install_clock",
    "now_us",
    "pack_deadline",
    "unpack_deadline",
]
