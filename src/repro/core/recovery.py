"""End-to-end connection recovery for one RPC-over-RDMA channel.

The protocol's §IV-B/C/D machinery (implicit acks, credits, synchronized
request-ID pools) is deterministic *as long as the reliable connection
holds*.  When it breaks — a QP forced to ERROR, completions lost, a
transport fault surfacing as :class:`~repro.core.endpoint.TransportError`
— partial state survives on both sides that can never re-align by
itself.  :class:`ChannelRecovery` is the one procedure that restores the
invariants, mirroring what a production stack does on ``IBV_EVENT_QP_FATAL``:

1. force both QPs to ERROR (idempotent) so everything in flight flushes;
2. drain and discard the flush completions from both CQs — the endpoints
   never see them, recovery absorbs the error storm;
3. discard any operations still sitting on the simulated wire;
4. cycle both QPs ERROR → INIT and reconnect them through the fabric;
5. rebuild both endpoints' connection state (fresh allocator, credits,
   ID pool, reposted receive WQEs) — deterministically, so the mirrored
   §IV-D pools restart aligned;
6. replay the client's unanswered requests in submission order (or fail
   them all with ``Flags.ERROR | Flags.ABORTED`` when ``replay=False``);
7. verify the recovered invariants: ID-pool fingerprints equal, credit
   windows full, no stranded state.

Every recovery is counted in the optional :class:`MetricsRegistry` and,
with a ``trace`` recorder (repro.obs), lands in the request trace as a
timed ``recovery_reset`` span, matching the §VI "instrumented at the
library level" stance.  See docs/FAULTS.md for the fault model this
answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .endpoint import ProtocolError

__all__ = [
    "RecoveryError",
    "RecoveryReport",
    "ChannelRecovery",
    "default_fault_types",
    "supervise_channel",
]


class RecoveryError(ProtocolError):
    """The post-reset invariant check failed: the channel could not be
    restored to a provably consistent state."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ChannelRecovery.reset` did."""

    reason: str
    replayed: int
    aborted: int
    drained_completions: int
    discarded_operations: int

    def render(self) -> str:
        return (
            f"recovery[{self.reason}]: replayed={self.replayed} "
            f"aborted={self.aborted} drained={self.drained_completions} "
            f"discarded={self.discarded_operations}"
        )


def _drain_cq(cq) -> int:
    """Absorb every queued completion (the flush-error storm) without
    letting it reach an endpoint's progress loop."""
    drained = 0
    while True:
        batch = cq.poll(max_entries=1 << 10)
        if not batch:
            return drained
        drained += len(batch)


class ChannelRecovery:
    """Reset-and-replay supervisor for one
    :class:`~repro.core.channel.Channel`.

    Construct once per channel; call :meth:`reset` whenever the transport
    faults (typically from an engine supervisor catching
    :class:`~repro.core.endpoint.TransportError`, see
    ``repro.runtime.supervisor``).
    """

    def __init__(self, channel, metrics=None, trace=None) -> None:
        self.channel = channel
        #: StageRecorder (repro.obs): each reset lands in the request
        #: trace as a timed recovery_reset span, so a recovered timeline
        #: shows *when* the channel healed between its retries.
        self.trace = trace
        self.reports: list[RecoveryReport] = []
        self._resets = self._replayed = self._aborted = None
        if metrics is not None:
            self._resets = metrics.counter(
                "rpc_recovery_resets_total", "Connection resets performed",
            )
            self._replayed = metrics.counter(
                "rpc_recovery_replayed_total", "Requests replayed after a reset",
            )
            self._aborted = metrics.counter(
                "rpc_recovery_aborted_total", "Requests aborted by a reset",
            )

    # -- the procedure -----------------------------------------------------------

    def reset(self, reason: str = "transport-error", replay: bool = True) -> RecoveryReport:
        """Run the full reset handshake; returns a report.  Safe to call
        with the QPs in any state — healthy QPs are errored first so the
        teardown is always the same sequence."""
        t0 = self.trace.now() if self.trace is not None else 0.0
        report = self._reset(reason, replay)
        if self.trace is not None:
            self.trace.event(None, "recovery_reset", ts=t0,
                             dur=self.trace.now() - t0, reason=reason,
                             replayed=report.replayed, aborted=report.aborted)
        self.reports.append(report)
        if self._resets is not None:
            self._resets.inc()
            self._replayed.inc(report.replayed)
            self._aborted.inc(report.aborted)
        return report

    def _reset(self, reason: str, replay: bool) -> RecoveryReport:
        ch = self.channel
        client, server, fabric = ch.client, ch.server, ch.fabric

        # 1-2. Error both QPs, absorb the flush storm ourselves.
        client.qp.to_error()
        server.qp.to_error()
        drained = _drain_cq(client.recv_cq) + _drain_cq(server.recv_cq)
        if client.qp.send_cq is not client.recv_cq:
            drained += _drain_cq(client.qp.send_cq)
        if server.qp.send_cq is not server.recv_cq:
            drained += _drain_cq(server.qp.send_cq)

        # 3. Pull the cable: nothing half-delivered survives the reset —
        # including completions a fault injector is holding back.
        discarded = fabric.discard_in_flight()
        injector = getattr(fabric, "injector", None)
        if injector is not None and hasattr(injector, "discard_delayed"):
            discarded += injector.discard_delayed()

        # 4. Cycle and reconnect.
        client.qp.reset_to_init()
        server.qp.reset_to_init()
        fabric.connect(client.qp, server.qp)

        # 5-6. Rebuild both sides.  Server first: its receive WQEs must
        # be posted before the client's replay starts writing blocks.
        # Invariants are provable only in the quiescent window *between*
        # the client's teardown and its replay — replayed transmits
        # allocate client-side IDs the server mirrors only when its
        # progress loop absorbs the blocks.
        server.reset_connection_state()
        snapshot = client.begin_reset()
        self.verify_invariants()
        moved = client.finish_reset(snapshot, replay=replay)
        return RecoveryReport(
            reason=reason,
            replayed=moved if replay else 0,
            aborted=0 if replay else moved,
            drained_completions=drained,
            discarded_operations=discarded,
        )

    # -- invariants ---------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Raise :class:`RecoveryError` unless the channel is back in a
        provably consistent post-reset state."""
        client, server = self.channel.client, self.channel.server
        cfp, sfp = client.id_pool.fingerprint(), server.id_pool.fingerprint()
        if cfp != sfp:
            raise RecoveryError(
                f"id pools desynchronized after reset: client={cfp} server={sfp}"
            )
        for side in (client, server):
            if side.qp.state.value != "rts":
                raise RecoveryError(f"{side.name}: QP not RTS after reset")
            if side.credits.available > side.config.credits:
                raise RecoveryError(f"{side.name}: credit window overflowed")
        if server.id_pool.live_count != 0:
            raise RecoveryError("server holds live request IDs after reset")


def default_fault_types() -> tuple[type, ...]:
    """The exception family a supervised channel treats as "the datapath
    broke, heal it": protocol-invariant violations (including
    :class:`~repro.core.endpoint.TransportError`), malformed/corrupt
    blocks (including :class:`~repro.core.wire.ChecksumError`), verbs
    failures, and memory-layer fallout from corrupt lengths.  Application
    exceptions stay outside the family — handlers already convert those
    to error responses."""
    from repro.memory.offset_allocator import AllocationError
    from repro.memory.region import MemoryError_
    from repro.rdma import VerbsError

    from .endpoint import ProtocolError as _ProtocolError
    from .wire import BlockFormatError

    return (_ProtocolError, BlockFormatError, VerbsError, MemoryError_, AllocationError)


def supervise_channel(
    channel,
    stall_ticks: int = 50,
    max_faults: int = 3,
    metrics=None,
    fault_types: tuple[type, ...] | None = None,
    trace=None,
):
    """Wire a channel for self-healing: an
    :class:`~repro.runtime.supervisor.EngineSupervisor` on the channel's
    engine whose stall and fault actions both run
    :meth:`ChannelRecovery.reset` and then re-admit/forgive the
    endpoints.  Returns ``(recovery, supervisor)``."""
    from repro.runtime.supervisor import EngineSupervisor

    recovery = ChannelRecovery(channel, metrics=metrics, trace=trace)

    def heal(reason: str) -> None:
        recovery.reset(reason=reason)
        for side in (channel.client, channel.server):
            supervisor.release(side)
            supervisor.reset_faults(side)

    supervisor = EngineSupervisor(
        channel.engine,
        stall_ticks=stall_ticks,
        max_faults=max_faults,
        on_stall=lambda reg: heal(f"stall:{reg.name}"),
        on_fault=lambda reg, exc: heal(f"fault:{reg.name}"),
        fault_types=fault_types if fault_types is not None else default_fault_types(),
        metrics=metrics,
        trace=trace,
    )
    return recovery, supervisor
