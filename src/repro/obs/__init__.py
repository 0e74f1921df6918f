"""Request-scoped observability for the offload datapath.

Layers (docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — trace contexts, stage events, bounded
  per-component ring buffers, attachment helpers;
* :mod:`repro.obs.timeline` — stitching events into end-to-end request
  timelines, per-stage latency accounting, tail sampling, histogram
  export;
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` JSON
  export and validation;
* :mod:`repro.obs.runner` — the traced-workload driver behind the
  ``repro trace`` / ``repro top`` / ``repro metrics`` CLI subcommands;
* :mod:`repro.obs.telemetry` — the streaming aggregator: windowed
  snapshots folded from the live event stream;
* :mod:`repro.obs.slo` — declarative SLO specs, multi-window burn-rate
  tracking, and anomaly detection over telemetry snapshots.
"""

from .perfetto import to_trace_events, validate_trace_events, write_trace
from .slo import (
    AnomalyDetector,
    SloEvent,
    SloSpec,
    SloTracker,
)
from .telemetry import (
    TelemetryHub,
    TelemetrySnapshot,
    render_dashboard,
)
from .timeline import (
    RequestTimeline,
    StageLatencyExporter,
    TailSampler,
    stage_latencies,
    stitch,
)
from .trace import (
    Stage,
    StageEvent,
    StageRecorder,
    TraceCollector,
    TraceContext,
    attach_channel,
    attach_endpoint,
    export_events,
    import_events,
    import_fault_events,
)

__all__ = [
    "Stage",
    "StageEvent",
    "StageRecorder",
    "TraceCollector",
    "TraceContext",
    "attach_channel",
    "attach_endpoint",
    "export_events",
    "import_events",
    "import_fault_events",
    "RequestTimeline",
    "StageLatencyExporter",
    "TailSampler",
    "stage_latencies",
    "stitch",
    "to_trace_events",
    "validate_trace_events",
    "write_trace",
    "TelemetryHub",
    "TelemetrySnapshot",
    "render_dashboard",
    "AnomalyDetector",
    "SloEvent",
    "SloSpec",
    "SloTracker",
]
