"""Synthetic workloads: the paper's benchmark messages and generators."""

from .traces import (
    FLEET_MIX,
    NESTED_PROTO,
    TraceComponent,
    TraceMix,
    deeply_nested,
    nested_schema,
)
from .openloop import (
    OpenLoopConfig,
    OpenLoopResult,
    percentile,
    run_open_loop,
)
from .messages import (
    SMALL,
    STANDARD_WORKLOADS,
    WORKLOAD_PROTO,
    X128_INTS,
    X512_INTS,
    X8000_CHARS,
    WorkloadFactory,
    WorkloadSpec,
    bench_service,
    workload_schema,
)

__all__ = [
    "FLEET_MIX",
    "NESTED_PROTO",
    "TraceComponent",
    "TraceMix",
    "deeply_nested",
    "nested_schema",
    "SMALL",
    "STANDARD_WORKLOADS",
    "WORKLOAD_PROTO",
    "X128_INTS",
    "X512_INTS",
    "X8000_CHARS",
    "WorkloadFactory",
    "WorkloadSpec",
    "bench_service",
    "workload_schema",
    "OpenLoopConfig",
    "OpenLoopResult",
    "percentile",
    "run_open_loop",
]
