"""Tests for the multiprocess supervisor: 3-OS-process deployment over
the shm transport — spawn/handshake, offloaded round trips, crash
propagation into the parent EngineSupervisor, DPU respawn with host-parse
failover, cross-process fault injection, and trace merging."""

from __future__ import annotations

import mmap
import multiprocessing
import os
import time

import pytest

from repro.core import ClientEndpoint
from repro.faults import FaultPlan, FaultSpec
from repro.proto import compile_schema
from repro.runtime import procs
from repro.runtime.engine import ProgressEngine
from repro.runtime.procs import ProcError, ProcSupervisor

#: a park no test outlives: what a child parked this long does within
#: :data:`_BOUND_S`, a socket woke it for (forked children inherit it)
_FOREVER_MS = 600_000
_BOUND_S = 5.0

CALC_PROTO = """
syntax = "proto3";
package calc;
message BinOp { int64 a = 1; int64 b = 2; }
message Value { int64 v = 1; }
service Calc {
  rpc Add (BinOp) returns (Value);
  rpc Mul (BinOp) returns (Value);
}
"""


@pytest.fixture(scope="module")
def calc_schema():
    return compile_schema(CALC_PROTO)


def make_servicer(schema):
    Value = schema["calc.Value"]

    class Servicer:
        def Add(self, request, context):
            return Value(v=request.a + request.b)

        def Mul(self, request, context):
            return Value(v=request.a * request.b)

    return Servicer()


@pytest.fixture
def supervisor(calc_schema):
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="testprocs", trace=True,
    )
    yield sup
    sup.stop()


@pytest.fixture
def parked(calc_schema, monkeypatch):
    """A started deployment whose children, once a pass did nothing,
    park until a socket wakes them."""
    monkeypatch.setattr(procs, "_PARK_MS", _FOREVER_MS)
    monkeypatch.setattr(procs, "_IDLE_PARK_MS", _FOREVER_MS)
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="parkprocs",
    ).start()
    time.sleep(0.15)  # both children park
    yield sup
    sup.stop()


def _cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``, in seconds."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_config_pair_is_validated_before_anything_is_spawned(calc_schema):
    """The supervisor builds its two sides in two processes, so it runs
    the channel factory's pair check itself (it used to check nothing)."""
    from dataclasses import replace

    from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS

    with pytest.raises(ValueError, match="agree on concurrency"):
        ProcSupervisor(
            calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
            client_config=replace(CLIENT_DEFAULTS, concurrency=2),
            server_config=SERVER_DEFAULTS,
        )
    assert multiprocessing.active_children() == []


def test_offloaded_round_trip_and_traces(supervisor, calc_schema):
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    supervisor.start()
    chan = supervisor.xrpc_channel()
    r = chan.call_sync("/calc.Calc/Add", BinOp(a=2, b=3), Value, max_iters=20000)
    assert r.v == 5
    r = chan.call_sync("/calc.Calc/Mul", BinOp(a=6, b=7), Value, max_iters=20000)
    assert r.v == 42

    stats = supervisor.stats()
    assert stats["dpu"]["ready"] is True
    assert stats["dpu"]["deserialized"] >= 2  # parsed in the DPU process
    assert stats["dpu"]["fallback_requests"] == 0
    assert stats["host"]["host_deserialized"] == 0  # host never parsed

    n = supervisor.collect_traces()
    assert n > 0
    comps = supervisor.collector.components()
    assert any(c.startswith("host.") for c in comps)
    assert any(c.startswith("dpu.") for c in comps)
    assert "client.xrpc" in comps

    # Teardown returns each child's final stats; stop() is idempotent.
    results = supervisor.stop()
    assert set(results) >= {"host", "dpu"}
    assert supervisor.stop() == {}


def test_dpu_kill_failover_and_rebootstrap(supervisor, calc_schema):
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    supervisor.start()
    chan = supervisor.xrpc_channel()
    assert chan.call_sync("/calc.Calc/Add", BinOp(a=1, b=1), Value,
                          max_iters=20000).v == 2

    supervisor.kill_dpu()
    deadline = time.monotonic() + 5.0
    while supervisor.supervisor.faults_contained == 0:
        supervisor.engine.step()
        if time.monotonic() > deadline:
            pytest.fail("DPU death never surfaced in the parent supervisor")
        time.sleep(0.01)

    supervisor.recover_dpu(bootstrap=False)
    chan2 = supervisor.xrpc_channel()
    assert chan2 is not chan  # the old client socket died with the child
    r = chan2.call_sync("/calc.Calc/Add", BinOp(a=10, b=1), Value,
                        max_iters=40000, idempotent=True)
    assert r.v == 11
    stats = supervisor.stats()
    assert stats["dpu"]["ready"] is False  # degraded until re-bootstrap
    assert stats["dpu"]["fallback_requests"] >= 1
    assert stats["host"]["host_deserialized"] >= 1  # host-parse failover

    supervisor.bootstrap()
    assert chan2.call_sync("/calc.Calc/Mul", BinOp(a=3, b=4), Value,
                           max_iters=40000).v == 12
    stats = supervisor.stats()
    assert stats["dpu"]["ready"] is True
    assert stats["dpu"]["deserialized"] >= 1


def test_cross_process_fault_injection(calc_schema, monkeypatch):
    """Completion 1 of the host is the bootstrap SEND's, completion 2 the
    request block's.  The second is held back while the host is parked
    and nothing else will arrive: only its passes without traffic
    release it — so a host that slept for as long as it had nothing in
    flight would never answer."""
    monkeypatch.setattr(procs, "_IDLE_PARK_MS", _FOREVER_MS)
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    plan = FaultPlan(11, [FaultSpec("delay_completion", at_count=1, delay_ticks=3),
                          FaultSpec("delay_completion", at_count=2, delay_ticks=3)])
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="faultprocs", host_fault_plan=plan,
    )
    try:
        sup.start()
        assert sup.stats()["host"]["injector_events"] == 1
        time.sleep(0.15)  # both children park
        chan = sup.xrpc_channel()
        started = time.monotonic()
        r = chan.call_sync("/calc.Calc/Add", BinOp(a=4, b=5), Value,
                           max_iters=40000, idempotent=True)
        assert r.v == 9
        assert time.monotonic() - started < _BOUND_S
        stats = sup.stats()
        # The injector lives (and fired) inside the host child process.
        assert stats["host"]["injector_events"] == 2
        assert stats["host"]["injector_fingerprint"]
    finally:
        sup.stop()


def test_the_dpu_child_polls_its_endpoint_once_per_pass(calc_schema, monkeypatch):
    """The DPU child's client endpoint is polled by its front door
    (``Ingress.progress`` -> ``dpu.channel.client.progress``) and by
    nothing else in the same engine pass.  An anonymous shared mapping
    made before the fork carries what the child counted back to the
    test."""
    # [most polls in one pass, polls inside passes]
    counts = memoryview(mmap.mmap(-1, 16)).cast("q")
    polls = [0]  # this process's count for the pass under way
    step, poll = ProgressEngine.step, ClientEndpoint.progress

    def counted_step(self, budget=None):
        polls[0] = 0
        try:
            return step(self, budget)
        finally:
            if polls[0]:
                counts[0] = max(counts[0], polls[0])
                counts[1] += polls[0]

    def counted_poll(self, budget=None):
        polls[0] += 1
        return poll(self, budget)

    monkeypatch.setattr(ProgressEngine, "step", counted_step)
    monkeypatch.setattr(ClientEndpoint, "progress", counted_poll)
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    with ProcSupervisor(calc_schema, calc_schema.service("calc.Calc"),
                        make_servicer(calc_schema), name="onepoll") as sup:
        chan = sup.xrpc_channel()
        for a in range(8):
            r = chan.call_sync("/calc.Calc/Add", BinOp(a=a, b=1), Value, max_iters=40000)
            assert r.v == a + 1
        assert counts[1] > 0
        assert counts[0] == 1


def test_a_parked_child_answers_a_control_command(parked):
    started = time.monotonic()
    stats = parked.stats()
    assert time.monotonic() - started < _BOUND_S
    assert stats["dpu"]["ready"] is True


def test_a_parked_child_serves_a_request(parked, calc_schema):
    """The client's bytes wake the DPU child, its doorbell the host
    child, the host's doorbell the DPU child again."""
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    started = time.monotonic()
    r = parked.xrpc_channel().call_sync("/calc.Calc/Mul", BinOp(a=6, b=7), Value,
                                        max_iters=40000)
    assert r.v == 42
    assert time.monotonic() - started < _BOUND_S


def test_a_parked_child_leaves_when_its_parent_hangs_up(calc_schema, monkeypatch,
                                                        own_descriptors):
    """The orphan rule holds for a child asleep in its poll: EOF on the
    control socket wakes it, and it tears its side down and exits."""
    monkeypatch.setattr(procs, "_PARK_MS", _FOREVER_MS)
    monkeypatch.setattr(procs, "_IDLE_PARK_MS", _FOREVER_MS)
    held_before = own_descriptors()
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="hangup",
    ).start()
    try:
        time.sleep(0.15)  # both children park
        children = [sup._host.proc, sup._dpu.proc]
        sup._host.ctl.close()
        sup._dpu.ctl.close()
        for proc in children:
            proc.join(_BOUND_S)
            assert proc.exitcode == 0
    finally:
        sup.stop()
    assert not [c.name for c in multiprocessing.active_children()
                if c.name.startswith("hangup-")]
    assert not [n for n in os.listdir("/dev/shm")
                if n.startswith("repro-hangup-") and f"-{os.getpid()}-" in n]
    assert not own_descriptors() - held_before


def test_a_parked_host_wakes_on_the_reconnected_doorbell(parked, calc_schema):
    """After the DPU child is killed and replaced, the host waits on the
    doorbell ``reconnect`` handed it, not the dead one (a closed
    descriptor in its poll would wake it on every pass)."""
    BinOp, Value = calc_schema["calc.BinOp"], calc_schema["calc.Value"]
    parked.kill_dpu()
    deadline = time.monotonic() + _BOUND_S
    while parked.supervisor.faults_contained == 0:
        parked.engine.step()
        assert time.monotonic() < deadline, "the DPU's death never surfaced"
        time.sleep(0.01)
    parked.recover_dpu(bootstrap=False)
    time.sleep(0.15)  # both children park again
    host = parked._host.proc.pid
    before = _cpu_s(host)
    time.sleep(0.5)
    assert _cpu_s(host) - before < 0.05  # asleep, not spinning
    started = time.monotonic()
    r = parked.xrpc_channel().call_sync("/calc.Calc/Add", BinOp(a=10, b=1), Value,
                                        max_iters=40000, idempotent=True)
    assert r.v == 11
    assert time.monotonic() - started < _BOUND_S
    assert parked.stats()["host"]["host_deserialized"] >= 1  # it crossed the doorbell


def test_idle_children_sleep(calc_schema):
    """With no traffic a child waits in its poll: each uses under 4 % of
    a CPU (spinning between 200 µs sleeps, each used 12-13 %)."""
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="idleprocs",
    ).start()
    try:
        time.sleep(0.2)
        pids = [sup._host.proc.pid, sup._dpu.proc.pid]
        before = [_cpu_s(pid) for pid in pids]
        time.sleep(1.0)
        used = [_cpu_s(pid) - was for pid, was in zip(pids, before)]
        assert max(used) < 0.04, used
    finally:
        sup.stop()


def test_start_twice_rejected(supervisor):
    supervisor.start()
    with pytest.raises(ProcError):
        supervisor.start()


@pytest.mark.parametrize("failing", ["bootstrap", "_await_ready"])
def test_failed_start_leaves_nothing_behind(calc_schema, monkeypatch, own_descriptors,
                                            failing):
    """``start()`` is all or nothing.  A caller whose ``start()`` raised
    holds nothing it would think to ``stop()`` — ``with`` never reaches
    ``__exit__`` when ``__enter__`` raises — so two children and two shm
    segments used to outlive the error."""

    def boom(self, *args, **kwargs):
        raise ProcError(f"injected {failing} failure")

    monkeypatch.setattr(ProcSupervisor, failing, boom)
    sup = ProcSupervisor(
        calc_schema, calc_schema.service("calc.Calc"), make_servicer(calc_schema),
        name="failstart",
    )
    held_before = own_descriptors()
    try:
        with pytest.raises(ProcError, match="injected"):
            sup.start()
        assert not [c.name for c in multiprocessing.active_children()
                    if c.name.startswith("failstart-")]
        assert not [n for n in os.listdir("/dev/shm")
                    if n.startswith("repro-failstart-") and f"-{os.getpid()}-" in n]
        assert not own_descriptors() - held_before  # control, doorbell, xRPC
        assert sup.stop() == {}  # nothing was left for it
    finally:
        sup.stop()
