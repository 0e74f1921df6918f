"""Tests for the flush hold (``flush_hold``, the passes a partial block
may wait): the rule on one endpoint, flush-reason accounting on live
endpoints, and the credit-exhaustion / partial-block flush ordering
interaction with no hold (``eager``) and with one (``nagle``)."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig, Response, create_channel

#: the two ways a partial block waits: every pass, or a few passes
HOLDS = {"eager": 0, "nagle": 3}


def make_cfg(**overrides) -> ProtocolConfig:
    base = dict(
        block_size=2 * 1024,
        block_alignment=1024,
        credits=8,
        send_buffer_size=64 * 1024,
        recv_buffer_size=64 * 1024,
        concurrency=128,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def echo_channel(cfg=None, hold: int = 0):
    """A channel whose client holds a partial block ``hold`` passes."""
    cfg = cfg or make_cfg()
    ch = create_channel(cfg, cfg)
    ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()))
    ch.client.flush_hold = hold
    return ch


class TestPolicyUnits:
    def test_eager_flushes_any_pending_message(self):
        ch = echo_channel()
        assert ch.client.flush_hold == 0  # the paper's event loop
        ch.client.progress()
        assert ch.client.flush_reasons == {}  # nothing open, nothing sealed
        ch.client.enqueue_bytes(1, b"x", lambda v, f: None)
        assert ch.client.holds_open_block
        ch.client.progress()
        assert not ch.client.holds_open_block
        assert ch.client.flush_reasons == {"eager": 1}

    def test_nagle_waits_for_deadline(self):
        ch = echo_channel(hold=3)
        for _ in range(50):
            ch.client.progress()
        assert ch.client.flush_reasons == {}  # nothing open
        ch.client.enqueue_bytes(1, b"x", lambda v, f: None)
        ch.client.progress()
        ch.client.progress()
        assert ch.client.holds_open_block  # two passes < the hold of three
        ch.client.progress()
        assert not ch.client.holds_open_block
        assert ch.client.flush_reasons == {"deadline": 1}


class TestPolicyOnEndpoints:
    def test_eager_sends_on_first_step(self):
        ch = echo_channel()
        out = []
        ch.client.enqueue_bytes(1, b"x", lambda v, f: out.append(bytes(v)))
        ch.engine.step()
        assert ch.client.stats.blocks_sent == 1
        assert ch.client.flush_reasons.get("eager") == 1

    def test_nagle_holds_partial_block_until_deadline(self):
        ch = echo_channel(hold=4)
        out = []
        ch.client.enqueue_bytes(1, b"x", lambda v, f: out.append(bytes(v)))
        for _ in range(3):
            ch.engine.step()
        assert ch.client.stats.blocks_sent == 0  # still batching
        ch.engine.step()
        assert ch.client.stats.blocks_sent == 1
        assert ch.client.flush_reasons == {"deadline": 1}
        # Messages enqueued while waiting batch into the same block.
        ch2 = echo_channel(hold=4)
        for i in range(5):
            ch2.client.enqueue_bytes(1, bytes([i]), lambda v, f: None)
        for _ in range(5):
            ch2.engine.step()
        assert ch2.client.stats.blocks_sent == 1

    def test_block_full_recorded_when_block_fills(self):
        ch = echo_channel(hold=50)
        # Each ~700-byte message: three fill past a 2 KiB block.
        for i in range(4):
            ch.client.enqueue_bytes(1, bytes([i]) * 700, lambda v, f: None)
        assert ch.client.flush_reasons.get("block_full", 0) >= 1

    def test_explicit_flush_always_available(self):
        ch = echo_channel(hold=99)
        out = []
        ch.client.enqueue_bytes(1, b"now", lambda v, f: out.append(bytes(v)))
        ch.client.flush()
        assert ch.client.flush_reasons == {"explicit": 1}
        assert ch.engine.drain(max_iters=50)
        assert out == [b"now"]

    def test_server_side_flush_reasons_recorded(self):
        ch = echo_channel()
        ch.client.enqueue_bytes(1, b"x", lambda v, f: None)
        assert ch.engine.drain(max_iters=50)
        assert ch.server.flush_reasons.get("eager", 0) >= 1


class TestCreditExhaustionOrdering:
    """§IV-C congestion control meets the flush hold: with a tiny credit
    window and more blocks than credits, both sides holding or not must
    keep responses strictly FIFO, exercise the pure-ack deadlock
    breaker, and return the credit window to full once quiescent."""

    N = 40

    @staticmethod
    def channel(policy: str):
        cfg = make_cfg(credits=2, concurrency=16)
        ch = create_channel(cfg, cfg)
        ch.client.flush_hold = ch.server.flush_hold = HOLDS[policy]
        return cfg, ch

    @pytest.mark.parametrize("policy", ["eager", "nagle"])
    def test_ordering_and_recovery_under_each_policy(self, policy):
        cfg, ch = self.channel(policy)
        ch.server.register(5, lambda req: Response.from_bytes(req.payload_bytes()))
        out = []
        # ~600-byte payloads: ~3 per 2 KiB block, so 40 requests need far
        # more blocks than the 2 credits allow in flight.
        for i in range(self.N):
            payload = i.to_bytes(2, "big") * 300
            ch.client.enqueue_bytes(
                5, payload, lambda v, f, i=i: out.append((i, bytes(v)))
            )
        for _ in range(600):
            if len(out) == self.N and not ch.client.pending():
                break
            ch.engine.step()
        assert len(out) == self.N
        # Strict FIFO: responses fire in enqueue order with the matching
        # payload, even though flushing was deferred and credits stalled.
        for i, (idx, got) in enumerate(out):
            assert idx == i
            assert got == i.to_bytes(2, "big") * 300
        # The window genuinely hit the floor...
        assert ch.client.credits.low_watermark == 0
        assert ch.client.credits.stalls > 0
        # ...and recovered completely once the exchange quiesced.
        assert ch.client.credits.available == cfg.credits
        # Replay invariant survives congestion with or without a hold.
        assert ch.client.id_pool.fingerprint() == ch.server.id_pool.fingerprint()

    @pytest.mark.parametrize("policy", ["eager", "nagle"])
    def test_flush_reasons_match_policy(self, policy):
        _, ch = self.channel(policy)
        ch.server.register(5, lambda req: Response.from_bytes(b"ok"))
        for i in range(self.N):
            ch.client.enqueue_bytes(5, bytes(600), lambda v, f: None)
        assert ch.engine.drain(max_iters=600)
        reasons = set(ch.client.flush_reasons)
        # "drain" can appear either way: ProgressEngine.drain()
        # force-flushes whatever partial block is open when it starts.
        allowed = {
            "eager": {"eager", "block_full", "backlog", "drain"},
            "nagle": {"deadline", "block_full", "backlog", "drain"},
        }[policy]
        assert reasons, "no flushes recorded at all"
        assert reasons <= allowed, f"unexpected flush reasons: {reasons - allowed}"
