"""Integration tests for the RPC-over-RDMA endpoints."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AddressPlanner,
    Flags,
    ProtocolConfig,
    ProtocolError,
    Response,
    RpcServer,
    create_channel,
)
from repro.rdma import Fabric
from repro.runtime.engine import EngineError, ProgressEngine

KIB = 1024
MIB = 1024 * KIB

SMALL_CFG = ProtocolConfig(
    block_size=2 * KIB,
    block_alignment=KIB,
    credits=8,
    send_buffer_size=64 * KIB,
    recv_buffer_size=64 * KIB,
    concurrency=512,
)


def small_channel(**kwargs):
    return create_channel(SMALL_CFG, SMALL_CFG, **kwargs)


def run(ch, iters=50):
    for _ in range(iters):
        ch.client.progress()
        ch.server.progress()


class TestRequestResponse:
    def test_echo(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()[::-1]))
        out = []
        ch.client.enqueue_bytes(1, b"abcdef", lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [b"fedcba"]

    def test_empty_payloads_both_ways(self):
        ch = small_channel()
        ch.server.register(0, lambda req: Response.empty())
        flags = []
        ch.client.enqueue_bytes(0, b"", lambda v, f: flags.append((len(v), f)))
        run(ch)
        assert flags == [(0, 0)]

    def test_many_requests_all_answered_in_order(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        seen = []
        for i in range(1000):
            ch.client.enqueue_bytes(1, i.to_bytes(4, "little"),
                                    lambda v, f: seen.append(int.from_bytes(v, "little")))
        run(ch, 200)
        assert seen == list(range(1000))

    def test_multiple_methods_dispatch(self):
        ch = small_channel()
        ch.server.register(10, lambda req: Response.from_bytes(b"ten"))
        ch.server.register(20, lambda req: Response.from_bytes(b"twenty"))
        got = {}
        ch.client.enqueue_bytes(20, b"", lambda v, f: got.setdefault(20, bytes(v)))
        ch.client.enqueue_bytes(10, b"", lambda v, f: got.setdefault(10, bytes(v)))
        run(ch)
        assert got == {10: b"ten", 20: b"twenty"}

    def test_unknown_method_yields_error_flag(self):
        ch = small_channel()
        out = []
        ch.client.enqueue_bytes(99, b"x", lambda v, f: out.append((bytes(v), f)))
        run(ch)
        assert len(out) == 1
        assert out[0][1] & Flags.ERROR
        assert b"unknown method" in out[0][0]

    def test_handler_exception_becomes_rpc_error(self):
        ch = small_channel()

        def boom(req):
            raise ValueError("nope")

        ch.server.register(1, boom)
        out = []
        ch.client.enqueue_bytes(1, b"", lambda v, f: out.append((bytes(v), f)))
        run(ch)
        assert out[0][1] & Flags.ERROR
        assert b"nope" in out[0][0]
        assert ch.server.stats.handler_errors == 1

    def test_in_place_payload_writer(self):
        """The enqueue writer constructs the payload directly in the block
        (the offload fast path)."""
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))

        def writer(space, addr):
            space.write(addr, b"in-place")
            return 8

        out = []
        ch.client.enqueue(1, 16, writer, lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [b"in-place"]

    def test_writer_overflow_detected(self):
        ch = small_channel()
        with pytest.raises(ProtocolError, match="writer produced"):
            ch.client.enqueue(1, 4, lambda s, a: 8, lambda v, f: None)

    def test_raising_request_writer_leaves_the_block_usable(self):
        """Regression: a writer that *raised* left its message open in the
        block, and every later enqueue on the connection failed with
        ``previous message not committed``."""
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))

        def bad(space, addr):
            raise ValueError("malformed payload")

        out = []
        ch.client.enqueue_bytes(1, b"first", lambda v, f: out.append(bytes(v)))
        with pytest.raises(ValueError, match="malformed"):
            ch.client.enqueue(1, 16, bad, lambda v, f: out.append(None))
        ch.client.enqueue_bytes(1, b"third", lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [b"first", b"third"]
        # A block the failed message had opened is given back, not sealed
        # empty: nothing is left allocated once everything is answered.
        with pytest.raises(ValueError):
            ch.client.enqueue(1, 16, bad, lambda v, f: None)
        run(ch)
        assert ch.client.allocator.is_empty()
        assert ch.client.credits.available == SMALL_CFG.credits

    def test_raising_response_writer_fails_only_its_request(self):
        """Regression: a response writer that raised unwound ``progress()``
        mid-block — the rest of the block was never dispatched and none of
        its requests was ever answered."""
        ch = small_channel()

        def handler(req):
            if req.payload_bytes() == b"bad":
                def writer(space, addr):
                    raise ValueError("cannot build response")
                return Response(size=8, writer=writer)
            return Response.from_bytes(req.payload_bytes())

        ch.server.register(1, handler)
        out = []
        for payload in (b"bad", b"ok-1", b"ok-2"):
            ch.client.enqueue_bytes(1, payload, lambda v, f: out.append((bytes(v), f)))
        run(ch)  # must not raise
        assert ch.client.stats.blocks_sent == 1  # the three shared a block
        assert out[0][1] & Flags.ERROR and b"cannot build response" in out[0][0]
        assert out[1:] == [(b"ok-1", 0), (b"ok-2", 0)]
        assert ch.server.stats.handler_errors == 1

    def test_raising_writer_in_the_backlog_fails_only_its_request(self):
        """Regression: a *backlogged* request is admitted inside
        ``progress()``, where there is no caller to hand the writer's
        exception to — it escaped the event loop and the request, already
        popped, was never answered."""
        cfg = ProtocolConfig(
            block_size=2 * KIB, block_alignment=KIB, credits=8,
            send_buffer_size=64 * KIB, recv_buffer_size=64 * KIB, concurrency=2,
        )

        def bad(space, addr):
            raise ValueError("malformed payload")

        def drive(with_bad: bool):
            ch = create_channel(cfg, cfg)
            ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
            out = []
            for tag in (b"one", b"two"):
                ch.client.enqueue_bytes(1, tag, lambda v, f: out.append((bytes(v), f)))
            if with_bad:
                ch.client.enqueue(1, 16, bad, lambda v, f: out.append((bytes(v), f)))
            ch.client.enqueue_bytes(1, b"four", lambda v, f: out.append((bytes(v), f)))
            assert len(ch.client._backlog) == 1 + with_bad
            run(ch)  # must not raise
            return ch, out

        ch, out = drive(with_bad=True)
        assert [o for o in out if not o[1]] == [(b"one", 0), (b"two", 0), (b"four", 0)]
        (failed,) = [o for o in out if o[1]]  # fired exactly once
        assert failed[1] & Flags.ERROR and b"malformed payload" in failed[0]
        assert ch.client.backlog_failures == 1
        assert not ch.client.pending()
        # The failed request cost nothing but itself: the connection is
        # where a run without it ends up.
        ref, _ = drive(with_bad=False)
        for side, ref_side in ((ch.client, ref.client), (ch.server, ref.server)):
            assert side.allocator.live_count == ref_side.allocator.live_count
            assert side.credits.available == ref_side.credits.available
            assert side.id_pool.fingerprint() == ref_side.id_pool.fingerprint()
        assert ch.client.stats.blocks_sent == ref.client.stats.blocks_sent

    def test_oversize_payload_rejected(self):
        ch = small_channel()
        with pytest.raises(ProtocolError, match="exceeds max_message_size"):
            ch.client.enqueue_bytes(
                1, b"x" * (SMALL_CFG.max_message_size + 1), lambda v, f: None
            )

    LARGE_CFG = ProtocolConfig(
        block_size=8 * KIB,
        block_alignment=KIB,
        credits=8,
        send_buffer_size=512 * KIB,
        recv_buffer_size=512 * KIB,
        concurrency=64,
    )

    def test_large_message_roundtrip(self):
        """§IV-E extension: payloads above 2^16 travel in the LARGE wire
        form and round-trip transparently."""
        ch = create_channel(self.LARGE_CFG, self.LARGE_CFG)
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()[:8]))
        big = bytes(range(251)) * 300  # 75 300 bytes > 2^16
        out = []
        ch.client.enqueue_bytes(1, big, lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [big[:8]]

    def test_large_response_roundtrip(self):
        ch = create_channel(self.LARGE_CFG, self.LARGE_CFG)
        big = b"R" * 70000
        ch.server.register(1, lambda req: Response.from_bytes(big))
        out = []
        ch.client.enqueue_bytes(1, b"?", lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [big]

    def test_zero_copy_server_view(self):
        """The server handler reads the payload in place from its RBuf —
        the address lies inside the mirrored region."""
        ch = small_channel()
        seen = {}

        def handler(req):
            seen["addr"] = req.payload_addr
            seen["data"] = req.payload_bytes()
            return Response.empty()

        ch.server.register(1, handler)
        ch.client.enqueue_bytes(1, b"zerocopy", lambda v, f: None)
        run(ch)
        rbuf = ch.server.rbuf
        assert rbuf.base <= seen["addr"] < rbuf.base + rbuf.size
        assert seen["data"] == b"zerocopy"


class TestBatching:
    def test_small_requests_batch_into_one_block(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.empty())
        for _ in range(10):
            ch.client.enqueue_bytes(1, b"tiny", lambda v, f: None)
        ch.client.flush()
        ch.fabric.flush()
        # 10 × (8 header + 8 payload-aligned) fits one 2 KiB block.
        assert ch.client.stats.blocks_sent == 1
        run(ch)

    def test_block_seals_at_block_size(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.empty())
        payload = b"x" * 500
        for _ in range(8):  # 8 × ~508 bytes > 2 KiB => at least 2 blocks
            ch.client.enqueue_bytes(1, payload, lambda v, f: None)
        ch.client.flush()
        assert ch.client.stats.blocks_sent >= 2
        run(ch)

    def test_oversized_message_gets_own_block(self):
        """§IV: messages larger than the minimum block size form a
        single-message block."""
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        big = bytes(range(256)) * 20  # 5120 bytes > 2 KiB block size
        out = []
        ch.client.enqueue_bytes(1, big, lambda v, f: out.append(bytes(v)))
        run(ch)
        assert out == [big]

    def test_mixed_sizes(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        sizes = [0, 1, 100, 3000, 7, 5000, 64]
        out = []
        for n in sizes:
            ch.client.enqueue_bytes(1, bytes([n % 251]) * n, lambda v, f: out.append(len(v)))
        run(ch)
        assert out == sizes

    def test_no_send_without_flush_below_block_size(self):
        ch = small_channel()
        ch.client.enqueue_bytes(1, b"q", lambda v, f: None)
        assert ch.client.stats.blocks_sent == 0  # still buffered (Nagle)
        ch.client.flush()
        assert ch.client.stats.blocks_sent == 1


class TestCreditsAndRecycling:
    def test_credits_bound_blocks_in_flight(self):
        """With a tiny credit budget and a slow server, sealed blocks
        queue instead of overrunning the receiver (§IV-C)."""
        cfg = ProtocolConfig(
            block_size=KIB, block_alignment=KIB, credits=2,
            send_buffer_size=64 * KIB, recv_buffer_size=64 * KIB, concurrency=256,
        )
        ch = create_channel(cfg, cfg)
        ch.server.register(1, lambda req: Response.empty())
        # Enqueue enough for ~8 blocks without ever running the server.
        for i in range(64):
            ch.client.enqueue_bytes(1, b"z" * 200, lambda v, f: None)
        ch.client.flush()
        assert ch.client.credits.available == 0
        assert ch.client.stats.blocks_sent <= 2
        assert len(ch.client._send_queue) > 0
        # Server answers; credits replenish; everything drains.
        run(ch, 100)
        assert ch.client.stats.responses_received == 64
        assert ch.client.credits.available == cfg.credits

    def test_an_idle_client_acknowledges_before_the_server_starves(self):
        """Regression (found by the send-path model test): with fewer
        than four credits the 'acks piled up' threshold could never be
        reached — two unacknowledged response blocks held both of the
        server's credits, the client had nothing to send that would carry
        the ack, and the third response waited forever."""
        cfg = ProtocolConfig(
            block_size=2 * KIB, block_alignment=KIB, credits=2,
            send_buffer_size=64 * KIB, recv_buffer_size=64 * KIB, concurrency=8,
        )
        ch = create_channel(cfg, cfg)
        sizes = iter((0, 3000, 0))  # three responses, three blocks
        ch.server.register(1, lambda req: Response.from_bytes(b"r" * next(sizes)))
        out = []
        for _ in range(3):
            ch.client.enqueue_bytes(1, b"", lambda v, f: out.append(len(v)))
        run(ch, 20)
        assert out == [0, 3000, 0]

    def test_a_pure_ack_block_is_not_reused_before_the_server_read_it(self):
        """Regression (found by the send-path model test): a pure-ack
        block was recycled at its *send completion* — which says the wire
        took it, not that the server read it.  A client running ahead of
        the server put its next request block at the same offset, over
        the unread ack in the mirrored RBuf, and the server died on a
        block sequence gap."""
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(b"r" * 2000))
        out = []
        for _ in range(4):  # four requests, four one-message response blocks
            ch.client.enqueue_bytes(1, b"q" * 2000, lambda v, f: out.append(len(v)))
        ch.client.flush()
        ch.server.progress()
        ch.client.progress()  # four blocks to acknowledge, nothing to send: pure ack
        assert (len(out), ch.client.stats.blocks_sent) == (4, 5)
        ch.client.progress()  # (its send completion)
        ch.client.enqueue_bytes(1, b"q", lambda v, f: out.append(len(v)))
        ch.client.flush()
        run(ch)  # the server reads the ack, then the request
        assert out == [2000] * 5
        assert ch.server.duplicate_blocks == 0
        # Answering that request block is what recycled the ack's block.
        assert ch.client.allocator.is_empty()

    def test_sbuf_blocks_recycled(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(b"ok"))
        for round_ in range(20):
            for _ in range(50):
                ch.client.enqueue_bytes(1, b"w" * 64, lambda v, f: None)
            run(ch, 10)
        # Client request blocks all recycled.
        assert ch.client.allocator.live_count == 0
        # Server keeps at most its final unacked response block.
        assert ch.server.allocator.live_count <= 1

    def test_credits_low_watermark_never_zero_in_paper_config(self):
        """§VI-A: 'The credits should also never reach zero. This is
        always true for the experimentation presented here.'"""
        ch = create_channel()
        ch.server.register(1, lambda req: Response.empty())
        for _ in range(2000):
            ch.client.enqueue_bytes(1, b"s" * 15, lambda v, f: None)
        run(ch, 100)
        assert ch.client.credits.low_watermark > 0

    def test_id_pools_stay_synchronized(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.empty())
        for burst in (1, 7, 30, 2, 120):
            for _ in range(burst):
                ch.client.enqueue_bytes(1, b"ab", lambda v, f: None)
            run(ch, 20)
            assert ch.client.id_pool.fingerprint() == ch.server.id_pool.fingerprint()


class TestRunUntilComplete:
    def test_completes(self):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.empty())
        done = []
        ch.client.enqueue_bytes(1, b"x", lambda v, f: done.append(1))

        # Interleave server progress via the fabric: drive both manually.
        for _ in range(10):
            ch.client.progress()
            ch.server.progress()
        assert done

    def test_raises_when_server_dead(self):
        """An engine that polls only the client runs out of passes with
        the request still pending; its continuation never fires."""
        ch = small_channel()
        done = []
        ch.client.enqueue_bytes(1, b"x", lambda v, f: done.append(f))
        engine = ProgressEngine(name="client-only")
        engine.register(ch.client)
        with pytest.raises(EngineError, match="exceeded 50"):
            engine.run(max_iters=50, until=lambda: not ch.client.pending())
        assert ch.client.pending() and done == []


class TestRaisingContinuation:
    """A client continuation that raises reaches the event loop's
    boundary, but only after every other response of the pass was
    delivered and its ID, block and credit accounted."""

    @staticmethod
    def drive(ch, passes):
        raised = []
        for _ in range(passes):
            try:
                ch.client.progress()
            except RuntimeError as exc:
                raised.append(exc)
            ch.server.progress()
        return raised

    def test_the_rest_of_the_block_is_answered(self):
        ch = create_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        out = []

        def boom(view, flags):
            raise RuntimeError("continuation failed")

        ch.client.enqueue_bytes(1, b"a", boom)
        ch.client.enqueue_bytes(1, b"b", lambda v, f: out.append(bytes(v)))
        raised = self.drive(ch, 100)
        assert [str(e) for e in raised] == ["continuation failed"]
        assert out == [b"b"]
        assert ch.client.outstanding == 0
        assert ch.client.credits.available == ch.client.credits.initial

    def test_later_blocks_of_the_pass_are_answered(self):
        # Two responses too large to share a block arrive in one client
        # pass; the first one's continuation raises.
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(bytes(1500)))
        out = []

        def boom(view, flags):
            raise RuntimeError("continuation failed")

        ch.client.enqueue_bytes(1, b"a", boom)
        ch.client.enqueue_bytes(1, b"b", lambda v, f: out.append(len(v)))
        ch.client.progress()
        ch.server.progress()
        assert ch.server.stats.blocks_sent >= 2
        raised = self.drive(ch, 50)
        assert len(raised) == 1
        assert out == [1500]
        assert ch.client.outstanding == 0
        assert ch.client.credits.available == ch.client.credits.initial


class TestMultiConnectionServer:
    def test_one_host_many_dpu_connections(self):
        """§III-C: the host serves several connections with one poller."""
        fabric = Fabric()
        planner = AddressPlanner()
        host = RpcServer()
        host.register(1, lambda req: Response.from_bytes(req.payload_bytes() + b"!"))
        channels = []
        server_space = None
        for i in range(4):
            ch = create_channel(
                SMALL_CFG, SMALL_CFG, fabric=fabric, planner=planner,
                server_space=server_space, name=f"conn{i}",
            )
            server_space = ch.server_space
            host.attach(ch.server)
            channels.append(ch)
        results = {i: [] for i in range(4)}
        for i, ch in enumerate(channels):
            for k in range(25):
                ch.client.enqueue_bytes(
                    1, f"c{i}m{k}".encode(),
                    lambda v, f, i=i: results[i].append(bytes(v)),
                )
        for _ in range(60):
            for ch in channels:
                ch.client.progress()
            host.progress()
        for i in range(4):
            assert len(results[i]) == 25
            assert results[i][0] == f"c{i}m0!".encode()

    def test_two_default_named_connections_get_two_metrics_rows(self):
        """Both servers are named ``chan.server``; seated under that one
        name they shared a row, and the first connection's polls, work
        and flush reasons vanished from ``summary()``."""
        host = RpcServer()
        host.register(1, lambda req: Response.from_bytes(b"ok"))
        channels = [small_channel(), small_channel()]
        for ch in channels:
            host.attach(ch.server)
        out = []
        channels[0].client.enqueue_bytes(1, b"x", lambda v, f: out.append(bytes(v)))
        for _ in range(20):
            channels[0].client.progress()
            host.progress()
        assert out == [b"ok"]
        rows = host.engine.metrics.per_pollable
        assert sorted(rows) == ["chan.server#0", "chan.server#1"]
        for i, ch in enumerate(channels):
            assert rows[f"chan.server#{i}"].polls == ch.server._polls
        assert rows["chan.server#0"].work_items > 0
        assert rows["chan.server#0"].flushes is channels[0].server.flush_reasons
        assert "chan.server#0: polls=20" in host.engine.summary()

    def test_register_after_attach(self):
        fabric = Fabric()
        host = RpcServer()
        ch = small_channel(fabric=fabric)
        host.attach(ch.server)
        host.register(5, lambda req: Response.from_bytes(b"late"))
        out = []
        ch.client.enqueue_bytes(5, b"", lambda v, f: out.append(bytes(v)))
        for _ in range(20):
            ch.client.progress()
            host.progress()
        assert out == [b"late"]


class TestBackgroundRpc:
    def test_background_without_executor_falls_back_to_foreground(self):
        """Bit 1 << 1 once asked for background execution; it is reserved
        now and never sent.  A request that arrives with it set is served
        in the poller — inside the server's own pass, on its thread — and
        answered once."""
        ch = small_channel()
        calls = []

        def handler(req):
            calls.append((threading.get_ident(), req.flags))
            return Response.from_bytes(b"fg")

        ch.server.register(1, handler)
        out = []
        ch.client.enqueue_bytes(1, b"", lambda v, f: out.append(bytes(v)), flags=1 << 1)
        handled = 0
        for _ in range(10):
            ch.client.progress()
            handled += ch.server.progress()
        assert handled == 1
        assert calls == [(threading.get_ident(), 1 << 1)]
        assert out == [b"fg"]


class TestPropertyEndToEnd:
    @settings(max_examples=30, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=600), min_size=1, max_size=80),
    )
    def test_arbitrary_payload_sequences_roundtrip(self, payloads):
        ch = small_channel()
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
        got = []
        for p in payloads:
            ch.client.enqueue_bytes(1, p, lambda v, f: got.append(bytes(v)))
        run(ch, 100)
        assert got == payloads
        assert ch.client.id_pool.fingerprint() == ch.server.id_pool.fingerprint()
        assert ch.client.allocator.live_count == 0
