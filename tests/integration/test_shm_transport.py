"""Single-process shm transport integration: the full protocol datapath
over real shared-memory RBuf segments and doorbell socketpairs, including
offload, fault injection, and connection recovery (docs/TRANSPORT.md)."""

from __future__ import annotations

import pytest

from repro.core import Flags, Response, TransportError, create_channel
from repro.core.recovery import ChannelRecovery
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.memory.shm import SharedRegion
from repro.proto import parse, serialize
from repro.rdma import QpState
from repro.rdma.shm_fabric import ShmFabric

METHOD = 1


@pytest.fixture
def shm_channel():
    ch = create_channel(transport="shm", name="shmtest")
    ch.server.register(METHOD, lambda req: Response.from_bytes(req.payload_bytes().upper()))
    yield ch
    ch.close()


def run(ch, iters: int = 200):
    for _ in range(iters):
        ch.progress()


class TestShmDatapath:
    def test_channel_uses_shared_segments(self, shm_channel):
        assert isinstance(shm_channel.fabric, ShmFabric)
        shared = [
            region
            for space in (shm_channel.client_space, shm_channel.server_space)
            for region in space.regions()
            if isinstance(region, SharedRegion)
        ]
        # Exactly the two mirrored receive buffers are physically shared.
        assert len(shared) == 2
        assert all(r.segment for r in shared)

    def test_round_trip(self, shm_channel):
        out = []
        shm_channel.client.enqueue_bytes(
            METHOD, b"hello shm", lambda v, f: out.append((bytes(v), f))
        )
        run(shm_channel)
        assert out == [(b"HELLO SHM", 0)] or out[0][0] == b"HELLO SHM"
        assert not out[0][1] & Flags.ERROR

    def test_pipelined_batch_stays_ordered(self, shm_channel):
        out = []
        for i in range(32):
            shm_channel.client.enqueue_bytes(
                METHOD, b"msg-%03d" % i, lambda v, f, i=i: out.append((i, bytes(v)))
            )
        run(shm_channel, iters=2000)
        assert [i for i, _ in out] == list(range(32))
        assert all(payload == b"MSG-%03d" % i for i, payload in out)

    def test_recovery_reset_replays_on_shm(self, shm_channel):
        out = []
        for i in range(3):
            shm_channel.client.enqueue_bytes(
                METHOD, bytes([65 + i]) * 4, lambda v, f, i=i: out.append((i, bytes(v), f))
            )
            shm_channel.client.progress()
        shm_channel.server.qp.to_error()
        report = ChannelRecovery(shm_channel).reset(reason="shm-test")
        assert report.replayed == 3
        assert shm_channel.client.qp.state is QpState.RTS
        assert shm_channel.server.qp.state is QpState.RTS
        run(shm_channel, iters=2000)
        assert sorted(i for i, _, _ in out) == [0, 1, 2]
        assert all(not (f & Flags.ERROR) for _, _, f in out)

    def test_injected_qp_error_recovers(self, shm_channel):
        injector = FaultInjector(
            FaultPlan(7, [FaultSpec("qp_error", at_count=1)])
        ).attach(shm_channel)
        out = []
        shm_channel.client.enqueue_bytes(
            METHOD, b"doomed", lambda v, f: out.append(f)
        )
        with pytest.raises(TransportError):
            run(shm_channel, iters=500)
        assert injector.events, "the injected fault never fired"
        assert shm_channel.client.qp.state is QpState.ERROR
        injector.detach(shm_channel)
        report = ChannelRecovery(shm_channel).reset(reason="injected")
        assert report.replayed == 1
        run(shm_channel, iters=2000)
        assert out and not (out[0] & Flags.ERROR)


class TestShmOffload:
    def test_offloaded_deserialization_over_shm(self, bench_schema):
        from dataclasses import replace

        from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS
        from repro.offload import create_offload_pair

        IntArray = bench_schema["bench.IntArray"]
        seen = []

        def sum_ints(view, request):
            values = list(view.values)
            seen.append(values)
            return IntArray(values=[sum(values) % (1 << 32)])

        pair = create_offload_pair(
            bench_schema,
            [(1, "bench.IntArray", sum_ints)],
            client_config=replace(CLIENT_DEFAULTS, transport="shm"),
            server_config=replace(SERVER_DEFAULTS, transport="shm"),
        )
        try:
            assert isinstance(pair.channel.fabric, ShmFabric)
            out = []
            pair.dpu.call(
                1, serialize(IntArray(values=list(range(64)))),
                lambda view, flags: out.append((bytes(view), flags)),
            )
            pair.run_until_idle()
            assert seen == [list(range(64))]
            assert out and not out[0][1] & Flags.ERROR
            reply = parse(IntArray, out[0][0])
            assert list(reply.values) == [sum(range(64))]
        finally:
            pair.channel.close()
