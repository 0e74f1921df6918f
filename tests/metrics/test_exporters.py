"""An endpoint's collector: its stats, read at scrape time."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from repro.core.endpoint import endpoint_families
from repro.metrics import MetricsRegistry


def _fake_endpoint():
    stats = SimpleNamespace(
        requests_sent=0, responses_received=0, requests_received=0,
        responses_sent=0, blocks_sent=0, blocks_received=0,
        bytes_sent=0, bytes_received=0, handler_errors=0,
    )
    return SimpleNamespace(
        stats=stats,
        credits=SimpleNamespace(available=16, low_watermark=16),
        allocator=SimpleNamespace(live_count=0, bytes_live=0),
    )


def _scraped(ep):
    reg = MetricsRegistry()
    reg.add_collector(partial(endpoint_families, ep, "t"))
    return reg


def _value(reg, name):
    (value,) = [s.value for s in reg.collect() if s.name == name]
    return value


class TestEndpointExporter:
    def test_mirrors_counters(self):
        ep = _fake_endpoint()
        reg = _scraped(ep)
        ep.stats.requests_sent = 5
        ep.stats.bytes_sent = 120
        text = reg.expose()
        assert "t_requests_sent_total 5.0" in text
        assert "t_bytes_sent_total 120.0" in text

    def test_incremental_updates_accumulate_once(self):
        ep = _fake_endpoint()
        reg = _scraped(ep)
        ep.stats.requests_sent = 3
        assert _value(reg, "t_requests_sent_total") == 3.0
        ep.stats.requests_sent = 7
        assert _value(reg, "t_requests_sent_total") == 7.0
        # a scrape reads, it does not add: no double counting
        assert _value(reg, "t_requests_sent_total") == 7.0

    def test_gauges_follow_endpoint(self):
        ep = _fake_endpoint()
        reg = _scraped(ep)
        ep.credits.available = 3
        ep.allocator.live_count = 2
        ep.allocator.bytes_live = 4096
        assert _value(reg, "t_credits") == 3.0
        assert _value(reg, "t_sbuf_live_blocks") == 2.0
        assert _value(reg, "t_sbuf_live_bytes") == 4096.0
