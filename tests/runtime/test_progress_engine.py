"""Tests for the unified progress engine: registration, stepping,
metrics, draining, and what a direct ``progress()`` call on a
registered endpoint is (the pass itself — no engine involved)."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig, Response, create_channel
from repro.metrics import MetricsRegistry
from repro.runtime import (
    EngineError,
    FnPollable,
    ProgressEngine,
)

CFG = ProtocolConfig(
    block_size=2 * 1024,
    block_alignment=1024,
    credits=8,
    send_buffer_size=64 * 1024,
    recv_buffer_size=64 * 1024,
    concurrency=128,
)


class ScriptedPollable:
    """Returns scripted work counts (0 after the script runs out)."""

    def __init__(self, script=(), name="scripted"):
        self.script = list(script)
        self.name = name
        self.polls = 0
        self.budgets = []

    def progress(self, budget=None):
        self.polls += 1
        self.budgets.append(budget)
        return self.script.pop(0) if self.script else 0

    def pending(self):
        return bool(self.script)


class TestStepping:
    def test_step_polls_everyone_and_sums_work(self):
        eng = ProgressEngine()
        a = ScriptedPollable([3, 1], name="a")
        b = ScriptedPollable([2], name="b")
        eng.register(a)
        eng.register(b)
        assert eng.step() == 5
        assert eng.step() == 1
        assert (a.polls, b.polls) == (2, 2)
        assert eng.tick == 2

    def test_budget_reaches_pollables(self):
        eng = ProgressEngine()
        a = ScriptedPollable(name="a")
        eng.register(a)
        eng.step(budget=7)
        assert a.budgets == [7]

    def test_budget_tolerated_for_budgetless_pollables(self):
        calls = []
        eng = ProgressEngine()
        eng.register(FnPollable(lambda: calls.append(1) or 1, name="legacy"))
        assert eng.step(budget=3) == 1
        assert calls == [1]

    def test_double_registration_rejected(self):
        eng = ProgressEngine()
        a = ScriptedPollable(name="a")
        eng.register(a)
        with pytest.raises(EngineError):
            eng.register(a)

    def test_a_live_name_is_not_registered_twice(self):
        """Two seats under one name would share one metrics row: the
        first pollable's polls would vanish from ``summary()``."""
        eng = ProgressEngine()
        a = ScriptedPollable(name="a")
        eng.register(a, name="seat")
        with pytest.raises(EngineError, match="seat"):
            eng.register(ScriptedPollable(name="b"), name="seat")
        eng.unregister(a)
        eng.register(ScriptedPollable(name="b"), name="seat")  # no longer live

    def test_unregister(self):
        eng = ProgressEngine()
        a = ScriptedPollable([1, 1], name="a")
        eng.register(a)
        eng.unregister(a)
        assert eng.step() == 0
        assert a.polls == 0
        with pytest.raises(EngineError):
            eng.unregister(a)

    def test_run_until(self):
        eng = ProgressEngine()
        a = ScriptedPollable([1] * 5, name="a")
        eng.register(a)
        total = eng.run(until=lambda: not a.pending())
        assert total == 5
        with pytest.raises(EngineError):
            eng.run(max_iters=3, until=lambda: False)


class TestMetrics:
    def test_poll_work_idle_counters(self):
        eng = ProgressEngine()
        a = ScriptedPollable([4, 0, 0, 0], name="a")
        eng.register(a, name="a")
        for _ in range(4):
            eng.step()
        pm = eng.metrics.per_pollable["a"]
        assert pm.polls == 4
        assert pm.work_items == 4
        assert pm.idle_polls == 3
        assert pm.idle_ratio == pytest.approx(0.75)
        assert eng.metrics.total_polls == 4

    def test_registry_export(self):
        reg = MetricsRegistry()
        eng = ProgressEngine()
        reg.add_collector(eng.metrics.collect)
        eng.register(ScriptedPollable([2], name="a"), name="a")
        eng.step()
        text = reg.expose()
        assert 'engine_polls_total{pollable="a"} 1' in text
        assert 'engine_work_items_total{pollable="a"} 2' in text
        assert "engine_ticks 1" in text

    def test_flush_reasons_shared_from_endpoints(self):
        reg = MetricsRegistry()
        ch = create_channel(CFG, CFG)
        reg.add_collector(ch.engine.metrics.collect)
        ch.server.register(1, lambda req: Response.from_bytes(b"ok"))
        out = []
        ch.client.enqueue_bytes(1, b"hi", lambda v, f: out.append(bytes(v)))
        ch.progress(iterations=10)
        assert out == [b"ok"]
        text = reg.expose()
        assert 'engine_flushes_total{pollable="chan.client",reason="eager"}' in text

    def test_summary_renders(self):
        eng = ProgressEngine(name="t")
        eng.register(ScriptedPollable([1], name="a"), name="a")
        eng.step()
        assert "a: polls=1" in eng.summary()


class TestLifecycle:
    def test_drain_waits_for_quiet(self):
        eng = ProgressEngine()
        a = ScriptedPollable([1, 1, 1], name="a")
        eng.register(a)
        assert eng.drain()
        assert not a.pending()

    def test_drain_gives_up(self):
        eng = ProgressEngine()
        eng.register(ScriptedPollable([1] * 1000, name="busy"))
        assert not eng.drain(max_iters=5)


class TestDrainFlush:
    def test_a_type_error_inside_flush_is_not_a_second_flush(self):
        """``_flush_all`` used to pick the call form by catching
        ``TypeError`` — so one raised *inside* ``flush(reason)`` ran the
        flush again without the reason, and was swallowed."""

        class Flusher(ScriptedPollable):
            def __init__(self):
                super().__init__(name="flusher")
                self.flush_reasons = {}
                self.flushes = []

            def flush(self, reason="explicit"):
                self.flushes.append(reason)
                raise TypeError("bug inside flush")

        eng = ProgressEngine()
        flusher = Flusher()
        eng.register(flusher)
        with pytest.raises(TypeError, match="bug inside flush"):
            eng.drain()
        assert flusher.flushes == ["drain"]

    def test_a_registered_fabric_is_drained(self):
        """A fabric's ``flush()`` takes a step budget, not a reason (it
        was only reached because ``0 < "drain"`` raised TypeError)."""
        from repro.rdma import Fabric

        fabric = Fabric(auto_flush=False)
        ch = create_channel(CFG, CFG, fabric=fabric)
        ch.server.register(1, lambda req: Response.from_bytes(b"ok"))
        eng = ProgressEngine()
        eng.register(fabric, name="fabric")
        out = []
        ch.client.enqueue_bytes(1, b"hi", lambda v, f: out.append(bytes(v)))
        ch.client.flush()
        assert fabric.in_flight == 1
        eng._flush_all("drain")
        assert fabric.in_flight == 0
        # ...and a whole drain over fabric + endpoints goes quiet.
        eng.register(ch.client)
        eng.register(ch.server)
        assert eng.drain(max_iters=50)
        assert out == [b"ok"]


class TestEndpointShims:
    def test_channel_registers_endpoints(self):
        ch = create_channel(CFG, CFG)
        regs = ch.engine.registrations
        assert [r.name for r in regs] == ["chan.client", "chan.server"]
        assert [r.pollable for r in regs] == [ch.client, ch.server]

    def test_progress_shim_routes_through_engine(self):
        """There is no shim left to route: a direct ``progress()`` is the
        pass and not an engine poll; ``engine.step()`` counts one each."""
        ch = create_channel(CFG, CFG)
        polls = ch.engine.metrics.per_pollable
        ch.client.progress()
        ch.server.progress()
        assert (ch.client._polls, ch.server._polls) == (1, 1)
        assert polls["chan.client"].polls == polls["chan.server"].polls == 0
        ch.engine.step()
        assert (ch.client._polls, ch.server._polls) == (2, 2)
        assert polls["chan.client"].polls == polls["chan.server"].polls == 1

    def test_unregistered_endpoint_builds_private_engine(self, monkeypatch):
        """It builds none.  An unregistered endpoint's ``progress()`` —
        and a quarantined one's, which used to acquire a private,
        unsupervised engine behind the supervisor's back — runs the pass
        and constructs no ``ProgressEngine``."""
        import repro.runtime.engine as engine_module
        from repro.core import supervise_channel

        ch = create_channel(CFG, CFG)
        _, supervisor = supervise_channel(ch)
        built = []
        init = engine_module.ProgressEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine_module.ProgressEngine, "__init__", counting_init)
        ch.engine.unregister(ch.client)
        supervisor.quarantine(ch.server, reason="test")
        assert ch.engine.registrations == []
        ch.server.register(1, lambda req: Response.from_bytes(b"ok"))
        out = []
        ch.client.enqueue_bytes(1, b"hi", lambda v, f: out.append(bytes(v)))
        for _ in range(10):
            ch.client.progress()
            ch.server.progress()
        assert out == [b"ok"]
        assert built == []
        assert ch.engine.metrics.total_polls == 0
        assert [reg.pollable for reg in supervisor.quarantined] == [ch.server]

    def test_rpc_echo_still_works_through_shims(self):
        # (id kept from when progress() was a shim: hand-driven endpoints)
        ch = create_channel(CFG, CFG)
        ch.server.register(1, lambda req: Response.from_bytes(req.payload_bytes()[::-1]))
        out = []
        ch.client.enqueue_bytes(1, b"abc", lambda v, f: out.append(bytes(v)))
        for _ in range(20):
            ch.client.progress()
            ch.server.progress()
        assert out == [b"cba"]


    def test_a_nested_pass_is_charged_to_the_registered_outer_pollable(self):
        """The ``procs`` DPU child registers its client endpoint *and* its
        front end, whose pass runs the endpoint's again (front → dpu →
        client).  The nested ``progress()`` is a plain call: a transport
        fault inside it surfaces through the front end's poll and is
        charged to the pollable the engine actually polled (the shim used
        to re-enter the engine and charge the endpoint twice)."""
        from repro.core import TransportError
        from repro.runtime import EngineSupervisor

        ch = create_channel(CFG, CFG)
        supervisor = EngineSupervisor(ch.engine, fault_types=(TransportError,))
        ch.engine.register(
            FnPollable(ch.client.progress, name="front")
        )
        ch.client.qp.to_error()
        ch.engine.step()  # both faults contained: the tick finishes
        assert [(e.kind, e.pollable) for e in supervisor.events] == [
            ("fault", "chan.client"), ("fault", "front"),
        ]


class TestRequestIdReplay:
    def test_single_stepped_replay_invariant(self):
        """§IV-D, deterministically single-stepped: request IDs never
        travel, yet after any interleaving of engine steps both pools
        replayed the same free/allocate sequence — their fingerprints
        agree and every continuation got the right payload."""
        ch = create_channel(CFG, CFG)
        ch.server.register(7, lambda req: Response.from_bytes(req.payload_bytes()))
        out = []
        # Three waves of enqueues interleaved with single engine steps,
        # so acknowledgment flushes and ID reuse interleave non-trivially.
        n = 0
        for wave in range(3):
            for _ in range(10):
                payload = bytes([n % 251])
                ch.client.enqueue_bytes(
                    7, payload, lambda v, f, want=payload: out.append((want, bytes(v)))
                )
                n += 1
            for _ in range(wave + 1):  # deliberately uneven stepping
                ch.engine.step()
        assert ch.engine.drain(max_iters=200)
        assert len(out) == n
        assert all(want == got for want, got in out)
        # The replay invariant: both ID pools observed identical
        # sequences, so their fingerprints are equal and nothing leaked.
        assert ch.client.id_pool.fingerprint() == ch.server.id_pool.fingerprint()
        # Answered IDs are freed at the *next seal* (§IV-D step 1), so the
        # final wave's IDs stay live — identically on both sides.
        assert ch.client.id_pool.live_count == ch.server.id_pool.live_count
        # One more request forces that seal; the pools free the backlog in
        # lockstep and stay fingerprint-synchronized.
        ch.client.enqueue_bytes(7, b"tail", lambda v, f: out.append((b"tail", bytes(v))))
        assert ch.engine.drain(max_iters=200)
        assert out[-1] == (b"tail", b"tail")
        assert ch.client.id_pool.fingerprint() == ch.server.id_pool.fingerprint()
        assert ch.client.id_pool.live_count == 1  # only the tail awaits its seal
