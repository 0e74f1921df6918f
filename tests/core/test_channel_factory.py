"""Tests for the channel factory, AddressPlanner, and ProtocolConfig."""

from __future__ import annotations

import pytest

from repro.core import AddressPlanner, ProtocolConfig, create_channel
from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS


class TestProtocolConfig:
    def test_table1_defaults(self):
        assert CLIENT_DEFAULTS.block_size == 8 * 1024
        assert CLIENT_DEFAULTS.credits == 256
        assert CLIENT_DEFAULTS.threads == 16
        assert SERVER_DEFAULTS.threads == 8
        assert CLIENT_DEFAULTS.send_buffer_size == 3 * 1024 * 1024
        assert SERVER_DEFAULTS.send_buffer_size == 16 * 1024 * 1024

    def test_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            ProtocolConfig(block_alignment=1000)
        with pytest.raises(ValueError, match="block_size"):
            ProtocolConfig(block_size=512, block_alignment=1024)
        with pytest.raises(ValueError, match="multiple"):
            ProtocolConfig(send_buffer_size=1024 * 1024 + 3)
        with pytest.raises(ValueError, match="credits"):
            ProtocolConfig(credits=0)
        with pytest.raises(ValueError, match="2\\^16"):
            ProtocolConfig(concurrency=(1 << 16) + 1)

    def test_credit_check_rule(self):
        cfg = ProtocolConfig(credits=256, concurrency=1024, block_size=8192)
        assert cfg.credit_check(message_size=15)  # small messages: plenty
        assert not cfg.credit_check(message_size=8192)  # one block each: 1024 > 256


class TestAddressPlanner:
    def test_disjoint_ranges(self):
        planner = AddressPlanner()
        a = planner.take(1 << 20)
        b = planner.take(1 << 20)
        c = planner.take(123)
        d = planner.take(1)
        spans = sorted([(a, 1 << 20), (b, 1 << 20), (c, 123), (d, 1)])
        for (s1, n1), (s2, _) in zip(spans, spans[1:]):
            assert s1 + n1 <= s2

    def test_alignment(self):
        planner = AddressPlanner(alignment=1 << 16)
        planner.take(5)
        assert planner.take(5) % (1 << 16) == 0


class TestCreateChannelValidation:
    def test_block_alignment_must_match(self):
        a = ProtocolConfig(block_alignment=1024)
        b = ProtocolConfig(block_alignment=2048, block_size=8192)
        with pytest.raises(ValueError, match="alignment"):
            create_channel(a, b)

    def test_rbuf_must_cover_remote_sbuf(self):
        small_rbuf = ProtocolConfig(recv_buffer_size=1024 * 1024)
        big_sbuf = ProtocolConfig(send_buffer_size=2 * 1024 * 1024)
        with pytest.raises(ValueError, match="RBuf must cover"):
            create_channel(small_rbuf, big_sbuf)
        with pytest.raises(ValueError, match="RBuf must cover"):
            create_channel(big_sbuf, small_rbuf)

    def test_concurrency_must_match(self):
        """Each side sizes its mirrored §IV-D ID pool from its own value:
        unequal ones desynchronized silently — here the third request
        died with ``response for unknown request 2``."""
        from dataclasses import replace

        with pytest.raises(ValueError, match="agree on concurrency"):
            create_channel(replace(CLIENT_DEFAULTS, concurrency=2), SERVER_DEFAULTS)

    def test_mirror_addresses_equal(self):
        ch = create_channel()
        assert ch.client.sbuf.base == ch.server.rbuf.base
        assert ch.server.sbuf.base == ch.client.rbuf.base
        assert ch.client.sbuf.size == ch.server.rbuf.size

    def test_channel_progress_helper(self):
        from repro.core import Response

        ch = create_channel()
        ch.server.register(1, lambda req: Response.empty())
        hits = []
        ch.client.enqueue_bytes(1, b"x", lambda v, f: hits.append(1))
        ch.progress(iterations=5)
        assert hits == [1]
