"""Tests for deadlines, the reset handshake, replay, invariant checks,
and the self-healing ``supervise_channel`` wiring (docs/FAULTS.md)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Flags, Response, create_channel
from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS
from repro.core.recovery import (
    ChannelRecovery,
    RecoveryError,
    default_fault_types,
    supervise_channel,
)
from repro.metrics import MetricsRegistry
from repro.rdma import QpState

METHOD = 1


def make_channel(deadline: int = 0):
    ch = create_channel(
        client_config=replace(
            CLIENT_DEFAULTS, request_deadline_ticks=deadline, verify_checksums=True
        ),
        server_config=replace(SERVER_DEFAULTS, verify_checksums=True),
    )
    ch.server.register(METHOD, lambda req: Response.from_bytes(req.payload_bytes()))
    return ch


def run(ch, iters: int = 50) -> None:
    for _ in range(iters):
        ch.client.progress()
        ch.server.progress()


class TestDeadlines:
    def test_expiry_fails_the_continuation_typed(self):
        ch = make_channel(deadline=5)
        out = []
        ch.client.enqueue_bytes(METHOD, b"stuck", lambda v, f: out.append((bytes(v), f)))
        # The server never runs: the client must give up on its own.
        for _ in range(10):
            ch.client.progress()
        assert len(out) == 1
        payload, flags = out[0]
        assert flags & Flags.ERROR and flags & Flags.ABORTED
        assert ch.client.timeouts == 1

    def test_late_response_absorbed_not_redelivered(self):
        ch = make_channel(deadline=3)
        out = []
        ch.client.enqueue_bytes(METHOD, b"late", lambda v, f: out.append(f))
        for _ in range(6):
            ch.client.progress()
        assert len(out) == 1  # expired locally
        # Now let the server answer; the stale response must be dropped.
        run(ch)
        assert len(out) == 1
        assert ch.client.late_responses == 1

    def test_no_deadline_means_wait_forever(self):
        ch = make_channel(deadline=0)
        out = []
        ch.client.enqueue_bytes(METHOD, b"patient", lambda v, f: out.append(f))
        for _ in range(50):
            ch.client.progress()
        assert out == []
        assert ch.client.timeouts == 0


class TestChannelRecovery:
    def _wedge(self, ch, n: int = 3):
        """Enqueue ``n`` requests that reach the wire but never get
        answered (the server is never driven), then break the server QP."""
        out = []
        for i in range(n):
            ch.client.enqueue_bytes(
                METHOD, bytes([i]) * 8, lambda v, f, i=i: out.append((i, bytes(v), f))
            )
            ch.client.progress()
        ch.server.qp.to_error()
        return out

    def test_reset_replays_unanswered_requests(self):
        ch = make_channel()
        out = self._wedge(ch, n=3)
        recovery = ChannelRecovery(ch)
        report = recovery.reset(reason="test")
        assert report.replayed == 3
        assert report.aborted == 0
        assert ch.client.qp.state is QpState.RTS
        assert ch.server.qp.state is QpState.RTS
        run(ch)
        assert sorted(i for i, _, _ in out) == [0, 1, 2]
        assert all(bytes([i]) * 8 == payload for i, payload, _ in out)
        assert all(not (flags & Flags.ERROR) for _, _, flags in out)
        assert recovery.reports == [report]

    def test_reset_without_replay_aborts_typed(self):
        ch = make_channel()
        out = self._wedge(ch, n=2)
        report = ChannelRecovery(ch).reset(reason="test", replay=False)
        assert report.aborted == 2 and report.replayed == 0
        assert len(out) == 2
        assert all(flags & Flags.ERROR and flags & Flags.ABORTED for _, _, flags in out)

    def test_reset_restores_block_sequences(self):
        """Both directions' sequence counters restart at zero, so the
        first post-reset block is seq 1 and the receiver accepts it."""
        ch = make_channel()
        self._wedge(ch, n=2)
        ChannelRecovery(ch).reset()
        assert ch.client._tx_seq == 0 and ch.server._rx_seq == 0
        out = []
        ch.client.enqueue_bytes(METHOD, b"fresh", lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [b"fresh"]

    def test_reset_seals_the_open_block_as_a_counted_flush(self):
        """Requests still in the open block are replayed, and the seal
        that read them out is counted under ``reset``."""
        ch = make_channel()
        out = []
        for payload in (b"a", b"b"):
            ch.client.enqueue_bytes(METHOD, payload, lambda v, f: out.append(bytes(v)))
        assert ch.client._writer is not None and not ch.client.flush_reasons
        report = ChannelRecovery(ch).reset(reason="test")
        assert report.replayed == 2
        assert ch.client.flush_reasons == {"reset": 1}
        run(ch)
        assert out == [b"a", b"b"]

    def test_reset_is_safe_on_a_healthy_channel(self):
        ch = make_channel()
        report = ChannelRecovery(ch).reset(reason="paranoia")
        assert report.replayed == 0
        out = []
        ch.client.enqueue_bytes(METHOD, b"ok", lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [b"ok"]

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        ch = make_channel()
        self._wedge(ch, n=2)
        recovery = ChannelRecovery(ch)
        metrics.add_collector(recovery.collect)
        recovery.reset()
        text = metrics.expose()
        assert "rpc_recovery_resets_total 1" in text
        assert "rpc_recovery_replayed_total 2" in text

    def test_verify_invariants_catches_desync(self):
        ch = make_channel()
        recovery = ChannelRecovery(ch)
        ch.server.id_pool.allocate_many(1)  # simulate a stranded mirror
        with pytest.raises(RecoveryError, match="desynchronized|live request IDs"):
            recovery.verify_invariants()


class TestDefaultFaultTypes:
    def test_family_covers_the_datapath(self):
        from repro.core import ProtocolError, TransportError
        from repro.core.wire import BlockFormatError, ChecksumError
        from repro.rdma import VerbsError

        family = default_fault_types()
        for exc_type in (ProtocolError, TransportError, BlockFormatError,
                         ChecksumError, VerbsError):
            assert issubclass(exc_type, family), exc_type

    def test_application_errors_stay_outside(self):
        family = default_fault_types()
        assert not issubclass(ValueError, family)
        assert not issubclass(KeyError, family)


class TestSuperviseChannel:
    def test_self_heals_a_mid_workload_qp_error(self):
        ch = make_channel()
        recovery, supervisor = supervise_channel(ch, stall_ticks=10, max_faults=4)
        out = []
        n = 6
        for i in range(n):
            ch.client.enqueue_bytes(
                METHOD, bytes([i + 1]) * 4, lambda v, f, i=i: out.append((i, f))
            )
        ch.engine.step()
        ch.server.qp.to_error()  # the fault hits mid-workload
        for _ in range(400):
            if len(out) == n:
                break
            ch.engine.step()
        assert len(out) == n
        assert all(not (f & Flags.ERROR) for _, f in out)
        assert len(recovery.reports) >= 1
        assert supervisor.stalls_detected + supervisor.faults_contained >= 1

    def test_heal_releases_quarantined_endpoints(self):
        ch = make_channel()
        recovery, supervisor = supervise_channel(ch, stall_ticks=5, max_faults=1)
        out = []
        ch.client.enqueue_bytes(METHOD, b"x" * 4, lambda v, f: out.append(f))
        ch.engine.step()
        ch.server.qp.to_error()
        for _ in range(300):
            if out:
                break
            ch.engine.step()
        assert out and not (out[0] & Flags.ERROR)
        # Post-heal, nothing is left quarantined and the engine still works.
        assert supervisor.quarantined == []
        ch.client.enqueue_bytes(METHOD, b"y" * 4, lambda v, f: out.append(f))
        for _ in range(100):
            if len(out) == 2:
                break
            ch.engine.step()
        assert len(out) == 2
