"""Request-scoped tracing: contexts, stage events, bounded collectors.

The aggregate metrics of :mod:`repro.metrics` answer *how much*; this
module answers *where one request's latency went* as it crossed
client → batcher → RDMA → DPU front end → arena deserializer → host
engine → response (docs/OBSERVABILITY.md).

Design constraints, in order:

1. **Free when disabled.**  Every instrumented component holds
   ``self.trace = None`` until :func:`attach` hands it a
   :class:`StageRecorder`; every hook is a single ``is not None`` test.
   No context objects, no ring buffers, no clock reads on the disabled
   path (verified by ``tests/obs/test_overhead_guard.py``).
2. **No new wire bytes (default mode).**  The trace id is *derived* from
   the protocol's own determinism: §IV-D ships no request IDs because
   both sides replay the same allocation sequence, and for exactly the
   same reason both sides can count messages in wire order and agree on
   a per-stream serial.  The client stamps ``(stream, n)`` on the n-th
   message it transmits; the server stamps ``(stream, n)`` on the n-th
   message it receives; the reliable connection makes them the same
   request.
3. **Replays covered by one opt-in word.**  A connection reset can lose
   transmitted-but-undelivered messages, skewing the derived serials for
   everything replayed afterwards.  ``explicit_context=True`` spends one
   flag bit (``Flags.TRACE_CTX``) and an 8-byte word ahead of the
   payload to carry the id explicitly; the word is stripped before the
   handler sees the payload.

Events are cheap, append-only records in per-component ring buffers
(``deque(maxlen=...)``); stitching, sampling and export happen offline
in :mod:`repro.obs.timeline` / :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import time
from collections import deque

__all__ = [
    "Stage",
    "TraceContext",
    "StageEvent",
    "StageRecorder",
    "TraceCollector",
    "attach_endpoint",
    "attach_channel",
    "export_events",
    "import_events",
    "import_fault_events",
]


class Stage:
    """Canonical stage names (docs/OBSERVABILITY.md#stage-taxonomy).

    Lifecycle stages appear once per request, in this order, each under
    the component that performed it; event stages (RETRY and below) are
    exceptional and drive the tail sampler's keep decisions.
    """

    # -- request lifecycle ------------------------------------------------
    INGRESS = "ingress"                  # xRPC frame accepted (edge)
    DESERIALIZE = "deserialize"          # wire bytes -> arena object (DPU)
    ENQUEUE = "enqueue"                  # request entered the endpoint
    SEAL = "block_seal"                  # its block was sealed
    TRANSMIT = "transmit"                # block posted (WRITE_WITH_IMM)
    DELIVER = "deliver"                  # block arrived at the peer
    DISPATCH = "dispatch"                # server ran the handler (timed)
    CALLBACK = "callback"                # business logic inside it (timed)
    RESPONSE_EMIT = "response_emit"      # response written into a block
    RESPONSE_DELIVER = "response_deliver"  # response reached the client
    RESPOND = "respond"                  # xRPC response frame sent (edge)
    # -- exceptional events ----------------------------------------------
    RETRY = "retry"
    TIMEOUT = "timeout"
    FAILOVER = "failover"
    RESET = "reset"
    ABORT = "abort"
    RECOVERY = "recovery_reset"
    CRASH = "engine_crash"
    REVIVE = "engine_revive"
    # -- overload control (docs/OVERLOAD.md) ------------------------------
    SHED = "shed"                        # admission control rejected
    DEADLINE_EXPIRED = "deadline_expired"  # dropped expired-on-arrival
    BREAKER_FALLBACK = "breaker_fallback"  # breaker denied the offload path
    # -- the SLO layer over telemetry windows (docs/OBSERVABILITY.md) ------
    SLO_BURN = "slo_burn"                # an SLO's error budget is burning
    SLO_RECOVERED = "slo_recovered"      # burn dropped back under 1x
    ANOMALY = "stage_anomaly"            # stage gap outside median±k·MAD

    #: stages whose presence marks a request as error-afflicted for the
    #: tail sampler (docs/OBSERVABILITY.md#sampling)
    EXCEPTIONAL = frozenset(
        {RETRY, TIMEOUT, FAILOVER, RESET, ABORT, RECOVERY, CRASH,
         SHED, DEADLINE_EXPIRED}
    )


class TraceContext:
    """One request's identity as it crosses components.

    The trace id (:attr:`tid`) is *late-bound*: events hold a reference
    to the context, so stages recorded before the id is known (enqueue,
    seal — §IV-D allocates nothing until transmit) pick it up when the
    transmit hook binds it.  Until then the context correlates its own
    events by object identity.
    """

    __slots__ = ("tid", "attrs")

    def __init__(self, tid=None, **attrs) -> None:
        self.tid = tid
        self.attrs = attrs

    def mark(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(tid={self.tid!r}, attrs={self.attrs!r})"


class StageEvent:
    """One recorded stage crossing.  ``ts``/``dur`` are seconds relative
    to the collector's epoch; ``ctx`` is None for component-global events
    (resets, supervisor verdicts, fault injections)."""

    __slots__ = ("ctx", "stage", "component", "ts", "dur", "attrs")

    def __init__(self, ctx, stage, component, ts, dur, attrs) -> None:
        self.ctx = ctx
        self.stage = stage
        self.component = component
        self.ts = ts
        self.dur = dur
        self.attrs = attrs

    @property
    def tid(self):
        """The (possibly late-bound) trace id at read time."""
        return self.ctx.tid if self.ctx is not None else None

    def render(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in (self.attrs or {}).items())
        dur = f" {self.dur * 1e6:.1f}µs" if self.dur else ""
        return f"+{self.ts * 1e6:10.1f}µs {self.component:<14} {self.stage:<16}{dur} {attrs}".rstrip()


class StageRecorder:
    """The per-component handle instrumentation hooks hold.

    One recorder per component name; all recorders share the collector's
    clock and epoch but append into their own ring, so a chatty
    component cannot evict another component's history.
    """

    __slots__ = ("collector", "component", "_ring", "_clock", "_epoch")

    def __init__(self, collector: "TraceCollector", component: str, ring) -> None:
        self.collector = collector
        self.component = component
        self._ring = ring
        self._clock = collector.clock
        self._epoch = collector.epoch

    def now(self) -> float:
        """Seconds since the collector's epoch (hooks that time a span
        call this twice and pass explicit ``ts``/``dur``)."""
        return self._clock() - self._epoch

    def context(self, **attrs) -> TraceContext:
        """New request context (edge components create one per request)."""
        return TraceContext(**attrs)

    def event(self, ctx, stage: str, ts: float | None = None,
              dur: float = 0.0, **attrs) -> None:
        """Record one stage crossing for ``ctx`` (None = global)."""
        if ts is None:
            ts = self._clock() - self._epoch
        ev = StageEvent(ctx, stage, self.component, ts, dur, attrs)
        self._ring.append(ev)
        sink = self.collector.sink
        if sink is not None:
            sink.offer(ev)

    def instant(self, stage: str, **attrs) -> None:
        """Component-global event with no request context."""
        self.event(None, stage, **attrs)


class TraceCollector:
    """Owns the per-component rings and the shared clock.

    ``ring`` bounds each component's history (old events drop silently —
    tracing must never grow without bound under load); ``clock`` is
    injectable for deterministic tests and simulated time.
    """

    def __init__(self, ring: int = 8192, clock=None) -> None:
        self.ring = ring
        self.clock = clock or time.perf_counter
        self.epoch = self.clock()
        #: generation counter for the epoch: bumped on every :meth:`clear`
        #: so consumers retaining state across rebases (the streaming
        #: :class:`~repro.obs.timeline.TailSampler`) can evict entries
        #: recorded against a dead epoch.
        self.epoch_id = 0
        #: optional streaming consumer (``offer(event)`` — the telemetry
        #: aggregator); None keeps the record path a plain ring append.
        self.sink = None
        self._rings: dict[str, deque] = {}
        self._recorders: dict[str, StageRecorder] = {}
        self._context_words = iter(range(1, 1 << 62))

    def attach_sink(self, sink):
        """Stream every recorded event into ``sink.offer(event)`` as it
        happens (the incremental path of :mod:`repro.obs.telemetry` —
        no ring rescans).  Returns the sink; pass None to detach."""
        self.sink = sink
        return sink

    def recorder(self, component: str) -> StageRecorder:
        """The (memoized) recorder for one component name."""
        rec = self._recorders.get(component)
        if rec is None:
            ring = self._rings.setdefault(component, deque(maxlen=self.ring))
            rec = StageRecorder(self, component, ring)
            self._recorders[component] = rec
        return rec

    def new_context(self, **attrs) -> TraceContext:
        return TraceContext(**attrs)

    def next_context_word(self) -> int:
        """Collector-unique id for the explicit on-wire context word."""
        return next(self._context_words)

    def components(self) -> list[str]:
        return sorted(self._rings)

    def events(self) -> list[StageEvent]:
        """All recorded events across components, in timestamp order."""
        out = [ev for ring in self._rings.values() for ev in ring]
        out.sort(key=lambda ev: ev.ts)
        return out

    def clear(self) -> None:
        for ring in self._rings.values():
            ring.clear()
        self.epoch = self.clock()
        self.epoch_id += 1
        for rec in self._recorders.values():
            rec._epoch = self.epoch


# ---------------------------------------------------------------------------
# Attachment helpers
# ---------------------------------------------------------------------------


def attach_endpoint(collector: TraceCollector, endpoint, component: str,
                    stream: str, explicit_context: bool = False) -> StageRecorder:
    """Enable request tracing on one endpoint.  ``stream`` names the
    derived-serial space and must match the peer endpoint's, or the two
    halves of each request never stitch.  Attach *before* traffic flows:
    the derived serials count messages from attachment on, and both
    sides must start counting at the same message."""
    rec = collector.recorder(component)
    endpoint.trace = rec
    endpoint._trace_stream = stream
    endpoint._trace_explicit = bool(explicit_context)
    return rec


def attach_channel(collector: TraceCollector, channel,
                   stream: str = "chan",
                   client_component: str = "dpu.rpc",
                   server_component: str = "host.rpc",
                   explicit_context: bool = False,
                   fabric_component: str | None = "fabric") -> None:
    """Wire a whole :class:`~repro.core.channel.Channel` for tracing:
    both endpoints on one shared stream, plus (optionally) the fabric's
    WRITE_WITH_IMM delivery events.  One-sided channels (the
    multiprocess deployments) attach whatever sides are local; the other
    process attaches its own half with the *same* ``stream`` name and the
    two collectors merge afterwards via :func:`export_events` /
    :func:`import_events`."""
    if channel.client is not None:
        attach_endpoint(collector, channel.client, client_component, stream,
                        explicit_context=explicit_context)
    if channel.server is not None:
        attach_endpoint(collector, channel.server, server_component, stream)
    if fabric_component is not None:
        channel.fabric.trace = collector.recorder(fabric_component)


# ---------------------------------------------------------------------------
# Cross-process merge
# ---------------------------------------------------------------------------


def export_events(collector: TraceCollector) -> dict:
    """Snapshot a collector as a picklable structure for crossing a
    process boundary: resolved trace ids, shared contexts expressed by
    index, timestamps still relative to *this* collector's epoch (the
    absolute epoch rides along so the importer can re-base).

    ``clock`` must be the default ``time.perf_counter`` for cross-process
    merging to be meaningful: on Linux it reads the system-wide
    ``CLOCK_MONOTONIC``, so two processes' epochs are directly
    comparable."""
    ctx_index: dict[int, int] = {}
    contexts: list[tuple] = []
    events = []
    for ring in collector._rings.values():
        for ev in ring:
            if ev.ctx is None:
                key = None
            else:
                key = ctx_index.get(id(ev.ctx))
                if key is None:
                    key = ctx_index[id(ev.ctx)] = len(contexts)
                    contexts.append((ev.ctx.tid, dict(ev.ctx.attrs)))
            events.append((key, ev.stage, ev.component, ev.ts, ev.dur, ev.attrs))
    return {"epoch": collector.epoch, "contexts": contexts, "events": events}


def import_events(collector: TraceCollector, snapshot: dict,
                  component_prefix: str = "") -> int:
    """Merge a peer process's :func:`export_events` snapshot into this
    collector, re-basing timestamps onto this collector's epoch via the
    shared monotonic clock.  Context identity is preserved within the
    snapshot (late-bound tids, identity-correlated unbound contexts), so
    stitching sees the same shape it would have in-process.  Returns the
    number of events imported."""
    offset = snapshot["epoch"] - collector.epoch
    contexts = [TraceContext(tid=tid, **attrs) for tid, attrs in snapshot["contexts"]]
    n = 0
    # The snapshot groups events by ring (component); a streaming sink
    # needs them in causal (timestamp) order or its gap attribution sees
    # components out of sequence.  Ring membership is unaffected.
    records = sorted(snapshot["events"], key=lambda rec: rec[3])
    sink = collector.sink
    for key, stage, component, ts, dur, attrs in records:
        comp = component_prefix + component
        ring = collector._rings.setdefault(comp, deque(maxlen=collector.ring))
        ctx = contexts[key] if key is not None else None
        ev = StageEvent(ctx, stage, comp, ts + offset, dur, attrs)
        ring.append(ev)
        if sink is not None:
            sink.offer(ev)
        n += 1
    return n


def import_fault_events(collector: TraceCollector, events,
                        component: str = "faults") -> int:
    """Replay a recorded fault log (``FaultInjector.events`` — the list
    behind a campaign fingerprint, docs/FAULTS.md) into the collector as
    instant events, using the event index as the timestamp so the
    injection *order* is preserved even though the original wall-clock
    is gone.  Returns the number imported."""
    rec = collector.recorder(component)
    n = 0
    for ev in events:
        rec.event(None, ev.kind, ts=float(ev.index) * 1e-6,
                  category=ev.category, count=ev.count,
                  target=ev.target, detail=ev.detail)
        n += 1
    return n
