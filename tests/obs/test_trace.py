"""Collector/recorder mechanics and trace-id propagation through a real
RPC-over-RDMA channel — both the derived (zero-wire-byte) and the
explicit (8-byte context word) modes."""

from __future__ import annotations

from repro.core import Flags, Response, create_channel
from repro.obs import (
    Stage,
    TraceCollector,
    attach_channel,
    attach_endpoint,
    stitch,
)

METHOD = 1


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1e-6
        return self.t


def make_channel():
    ch = create_channel()
    ch.server.register(METHOD, lambda req: Response.from_bytes(req.payload_bytes()))
    return ch


def run(ch, iters: int = 60) -> None:
    for _ in range(iters):
        ch.client.progress()
        ch.server.progress()


class TestCollector:
    def test_recorder_memoized(self):
        c = TraceCollector(clock=FakeClock())
        assert c.recorder("x") is c.recorder("x")
        assert c.recorder("x") is not c.recorder("y")

    def test_ring_bounds_per_component(self):
        c = TraceCollector(ring=4, clock=FakeClock())
        rec = c.recorder("noisy")
        for i in range(10):
            rec.instant("tick", i=i)
        c.recorder("quiet").instant("once")
        events = c.events()
        # The noisy component kept only its newest 4; the quiet one lost
        # nothing to its neighbour's chatter.
        assert sum(1 for ev in events if ev.component == "noisy") == 4
        assert sum(1 for ev in events if ev.component == "quiet") == 1
        kept = [ev.attrs["i"] for ev in events if ev.component == "noisy"]
        assert kept == [6, 7, 8, 9]

    def test_events_merged_in_time_order(self):
        c = TraceCollector(clock=FakeClock())
        a, b = c.recorder("a"), c.recorder("b")
        a.instant("first")
        b.instant("second")
        a.instant("third")
        assert [ev.stage for ev in c.events()] == ["first", "second", "third"]

    def test_clear_resets_epoch(self):
        c = TraceCollector(clock=FakeClock())
        rec = c.recorder("a")
        rec.instant("old")
        c.clear()
        rec.instant("new")
        events = c.events()
        assert [ev.stage for ev in events] == ["new"]
        assert events[0].ts < 1e-3  # re-based on the fresh epoch

    def test_context_words_unique(self):
        c = TraceCollector(clock=FakeClock())
        words = [c.next_context_word() for _ in range(5)]
        assert len(set(words)) == 5
        assert all(w > 0 for w in words)

    def test_late_bound_tid_visible_through_event(self):
        c = TraceCollector(clock=FakeClock())
        rec = c.recorder("a")
        ctx = rec.context()
        rec.event(ctx, "enqueue")
        ev = c.events()[0]
        assert ev.tid is None
        ctx.tid = ("s", 1)  # what the transmit hook does
        assert ev.tid == ("s", 1)


class TestDerivedIds:
    def test_request_stitches_across_both_endpoints(self):
        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        done = []
        for i in range(3):
            ch.client.enqueue_bytes(
                METHOD, b"req-%d" % i, lambda v, f: done.append(f)
            )
        run(ch)
        assert len(done) == 3

        timelines, _ = stitch(collector)
        assert sorted(tl.tid for tl in timelines) == [("t", 1), ("t", 2), ("t", 3)]
        for tl in timelines:
            # Client half and server half merged into one timeline.
            assert tl.components() == {"c", "s"}
            stages = set(tl.stages())
            assert {
                Stage.ENQUEUE, Stage.SEAL, Stage.TRANSMIT, Stage.DELIVER,
                Stage.DISPATCH, Stage.RESPONSE_EMIT, Stage.RESPONSE_DELIVER,
            } <= stages

    def test_serials_count_messages_not_blocks(self):
        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        done = []
        # Two requests enqueued back-to-back share one block; they must
        # still get distinct serials.
        ch.client.enqueue_bytes(METHOD, b"a", lambda v, f: done.append(f))
        ch.client.enqueue_bytes(METHOD, b"b", lambda v, f: done.append(f))
        run(ch)
        timelines, _ = stitch(collector)
        assert sorted(tl.tid for tl in timelines) == [("t", 1), ("t", 2)]

    def test_wire_bytes_identical_with_and_without_tracing(self):
        results = []
        for traced in (False, True):
            ch = make_channel()
            if traced:
                attach_channel(TraceCollector(), ch, stream="t")
            got = []
            ch.client.enqueue_bytes(
                METHOD, b"same-bytes", lambda v, f: got.append(bytes(v))
            )
            run(ch)
            results.append((got[0], ch.client.stats.bytes_sent))
        assert results[0] == results[1]  # derived ids ship zero wire bytes


class TestRecorderChangedMidBlock:
    """A recorder is attached or detached at any pass (``trace`` is a
    plain attribute, set to None and back) — so a block the client holds
    open may straddle the change."""

    @staticmethod
    def held_channel(collector):
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        ch.client.flush_hold = 8
        return ch

    def test_detached_while_a_held_block_is_traced(self):
        ch = self.held_channel(TraceCollector())
        done = []
        ch.client.enqueue_bytes(METHOD, b"held", lambda v, f: done.append(bytes(v)))
        ch.client.trace = None
        for _ in range(20):
            ch.engine.step()
        assert done == [b"held"]

    def test_detached_then_reset_while_a_held_block_is_traced(self):
        from repro.core.recovery import ChannelRecovery

        ch = self.held_channel(TraceCollector())
        done = []
        ch.client.enqueue_bytes(METHOD, b"held", lambda v, f: done.append(bytes(v)))
        ch.client.trace = None
        ChannelRecovery(ch).reset(reason="test")
        for _ in range(20):
            ch.engine.step()
        assert done == [b"held"]

    def test_reattached_mid_block_keeps_the_serials_in_step(self):
        collector = TraceCollector()
        ch = self.held_channel(collector)
        recorder = ch.client.trace
        done = []
        ch.client.enqueue_bytes(METHOD, b"a", lambda v, f: done.append(bytes(v)))
        ch.client.trace = None  # what the shed_tracing rung does...
        ch.client.enqueue_bytes(METHOD, b"bb", lambda v, f: done.append(bytes(v)))
        ch.client.trace = recorder  # ...and its revert, before the seal
        for _ in range(20):
            ch.engine.step()
        ch.client.enqueue_bytes(METHOD, b"ccc", lambda v, f: done.append(bytes(v)))
        for _ in range(20):
            ch.engine.step()
        assert done == [b"a", b"bb", b"ccc"]
        timelines, _ = stitch(collector)
        traced = {tl.tid: tl for tl in timelines if "c" in tl.components()}
        # The untraced second message still took serial 2 on both sides.
        assert sorted(traced) == [("t", 1), ("t", 3)]
        for tl in traced.values():
            sizes = {ev.component: ev.attrs["bytes"] for ev in tl.events
                     if ev.stage in (Stage.ENQUEUE, Stage.DELIVER)}
            assert sizes["c"] == sizes["s"]

    def test_attached_mid_block_gives_each_request_its_own_id(self):
        collector = TraceCollector()
        ch = make_channel()
        ch.client.flush_hold = 8
        done = []
        ch.client.enqueue_bytes(METHOD, b"abc", lambda v, f: done.append(bytes(v)))
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        ch.client.enqueue_bytes(METHOD, b"defgh", lambda v, f: done.append(bytes(v)))
        for _ in range(20):
            ch.engine.step()
        assert done == [b"abc", b"defgh"]
        timelines, _ = stitch(collector)
        (traced,) = [tl for tl in timelines if "c" in tl.components()]
        # The second message of the block: serial 2 on both sides, and
        # the client's half stitched to that request's server half.
        assert traced.tid == ("t", 2)
        sizes = {ev.component: ev.attrs["bytes"] for ev in traced.events
                 if ev.stage in (Stage.ENQUEUE, Stage.DELIVER)}
        assert sizes == {"c": 5, "s": 5}


class TestExplicitContext:
    def test_word_stripped_before_handler(self):
        collector = TraceCollector()
        ch = create_channel()
        seen = []

        def handler(req):
            seen.append((bytes(req.payload_bytes()), req.flags))
            return Response.from_bytes(req.payload_bytes())

        ch.server.register(METHOD, handler)
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s",
                       explicit_context=True)
        done = []
        ch.client.enqueue_bytes(METHOD, b"payload!", lambda v, f: done.append(bytes(v)))
        run(ch)
        payload, flags = seen[0]
        assert payload == b"payload!"  # the 8-byte word never leaks
        assert not flags & Flags.TRACE_CTX
        assert done == [b"payload!"]

    def test_explicit_tid_binds_both_halves(self):
        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s",
                       explicit_context=True)
        done = []
        ch.client.enqueue_bytes(METHOD, b"x", lambda v, f: done.append(f))
        run(ch)
        timelines, _ = stitch(collector)
        (tl,) = timelines
        assert tl.tid[0] == "ctx"
        assert tl.components() == {"c", "s"}

    def test_word_stripped_even_when_server_not_tracing(self):
        # The flag bit commits the *wire format*: the receiver must strip
        # the word whether or not its own tracing is enabled.
        collector = TraceCollector()
        ch = create_channel()
        seen = []
        ch.server.register(
            METHOD,
            lambda req: (seen.append(bytes(req.payload_bytes())),
                         Response.from_bytes(req.payload_bytes()))[1],
        )
        attach_endpoint(collector, ch.client, "c", "t", explicit_context=True)
        assert ch.server.trace is None
        done = []
        ch.client.enqueue_bytes(METHOD, b"naked", lambda v, f: done.append(bytes(v)))
        run(ch)
        assert seen == [b"naked"]
        assert done == [b"naked"]


class TestResetReplay:
    def test_explicit_word_not_double_prepended_across_replay(self):
        from repro.core.recovery import ChannelRecovery

        collector = TraceCollector()
        ch = create_channel()
        seen = []
        ch.server.register(
            METHOD,
            lambda req: (seen.append(bytes(req.payload_bytes())),
                         Response.from_bytes(req.payload_bytes()))[1],
        )
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s",
                       explicit_context=True)
        done = []
        ch.client.enqueue_bytes(METHOD, b"survivor", lambda v, f: done.append(bytes(v)))
        # Transmit but never let the server answer, then reset + replay.
        for _ in range(10):
            ch.client.progress()
        assert not done
        ChannelRecovery(ch).reset(reason="test")
        run(ch)
        # The replayed request carries ONE fresh context word — the
        # handler sees the original payload exactly once, intact.
        assert seen == [b"survivor"]
        assert done == [b"survivor"]

    def test_reset_event_recorded_for_inflight_requests(self):
        from repro.core.recovery import ChannelRecovery

        collector = TraceCollector()
        ch = make_channel()
        attach_channel(collector, ch, stream="t",
                       client_component="c", server_component="s")
        ch.client.enqueue_bytes(METHOD, b"wedged", lambda v, f: None)
        for _ in range(10):
            ch.client.progress()
        ChannelRecovery(ch, trace=collector.recorder("recovery")).reset(reason="test")
        run(ch)
        timelines, global_events = stitch(collector)
        assert any(Stage.RESET in tl.stages() for tl in timelines)
        # The recovery procedure itself lands as a timed global span.
        recovery = [ev for ev in global_events if ev.stage == Stage.RECOVERY]
        assert recovery and recovery[0].dur > 0
