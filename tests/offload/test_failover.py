"""DPU-engine crash and graceful degradation: while the deserialization
engine is down, the front-end falls back to the pre-offload datapath
(``Flags.WIRE_PAYLOAD``, host-side parsing) and every call still answers
correctly; revival restores the offload path (docs/FAULTS.md)."""

from __future__ import annotations

import pytest

from repro.core import create_channel
from repro.offload.engine import DpuEngine, EngineCrashedError, HostEngine
from repro.proto import compile_schema
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    XrpcChannel,
    make_stub_class,
    register_offloaded_servicer,
)

SRC = """
syntax = "proto3";
package fo;
message BinOp { int64 a = 1; int64 b = 2; }
message Value { int64 v = 1; }
service Calc { rpc Add (BinOp) returns (Value); }
"""


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


def deployment(schema):
    Value = schema["fo.Value"]

    class Servicer:
        def Add(self, request, context):
            return Value(v=request.a + request.b)

    svc = schema.service("fo.Calc")
    rdma = create_channel()
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, svc, Servicer())
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:1", dpu, svc)
    channel = XrpcChannel(net, "dpu:1")
    channel.drive = lambda: (front.progress(), host.progress())
    stub = make_stub_class(svc, schema.factory)(channel)
    return stub, dpu, host, front, schema


class TestEngineCrash:
    def test_call_raises_while_crashed(self, schema):
        _, dpu, _, _, _ = deployment(schema)
        dpu.crash("test")
        with pytest.raises(EngineCrashedError, match="test"):
            dpu.call(1, b"", lambda v, f: None)

    def test_crash_is_idempotent_and_counted(self, schema):
        _, dpu, _, _, _ = deployment(schema)
        dpu.crash("one")
        dpu.crash("two")
        assert dpu.crashes == 1
        assert dpu.crash_reason == "two"
        dpu.revive()
        assert not dpu.crashed and dpu.crash_reason == ""

    def test_call_raw_works_while_crashed(self, schema):
        """The fallback datapath needs no deserializer: the transport
        underneath the crashed engine still carries wire payloads."""
        _, dpu, host, _, s = deployment(schema)
        BinOp = s["fo.BinOp"]
        from repro.proto import serialize

        dpu.crash("test")
        out = []
        method_id = next(iter(dpu.method_table))  # the only method: Add
        dpu.call_raw(
            method_id,
            serialize(BinOp(a=2, b=3)),
            lambda view, flags: out.append(bytes(view)),
        )
        for _ in range(50):
            dpu.channel.client.progress()
            host.progress()
        assert len(out) == 1
        assert host.host_deserialized == 1


class TestGracefulDegradation:
    def test_calls_answer_across_crash_and_revival(self, schema):
        stub, dpu, host, front, s = deployment(schema)
        BinOp = s["fo.BinOp"]

        # Healthy: offloaded path, no fallback.
        assert stub.Add(BinOp(a=1, b=2)).v == 3
        assert front.fallback_requests == 0
        baseline_parsed = host.host_deserialized

        # Crashed: the front-end degrades to wire payloads; answers stay
        # correct and the host does the parsing.
        dpu.crash("mid-workload")
        assert stub.Add(BinOp(a=10, b=20)).v == 30
        assert stub.Add(BinOp(a=7, b=8)).v == 15
        assert front.fallback_requests == 2
        assert host.host_deserialized == baseline_parsed + 2

        # Revived: back on the offload path; fallback stops growing.
        dpu.revive()
        assert stub.Add(BinOp(a=100, b=200)).v == 300
        assert front.fallback_requests == 2
        assert host.host_deserialized == baseline_parsed + 2

    def test_degraded_responses_bit_exact(self, schema):
        """Same request, healthy vs degraded: byte-identical results."""
        stub, dpu, _, _, s = deployment(schema)
        BinOp = s["fo.BinOp"]
        healthy = [stub.Add(BinOp(a=i, b=i * 3)).v for i in range(8)]
        dpu.crash("compare")
        degraded = [stub.Add(BinOp(a=i, b=i * 3)).v for i in range(8)]
        assert healthy == degraded
