"""End-to-end xRPC tests: baseline server, offloaded server, and the
equivalence between the two deployments (Figure 1)."""

from __future__ import annotations

import pytest

from repro.core import create_channel
from repro.offload.engine import DpuEngine, HostEngine
from repro.proto import compile_schema
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    RpcError,
    ServiceError,
    StatusCode,
    XrpcChannel,
    XrpcServer,
    assign_method_ids,
    make_stub_class,
    register_offloaded_servicer,
)

SRC = """
syntax = "proto3";
package calc;
message BinOp { int64 a = 1; int64 b = 2; }
message Value { int64 v = 1; }
message Blob { bytes data = 1; }
service Calc {
  rpc Add (BinOp) returns (Value);
  rpc Mul (BinOp) returns (Value);
  rpc Echo (Blob) returns (Blob);
}
"""


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


def make_servicer(schema):
    Value, Blob = schema["calc.Value"], schema["calc.Blob"]

    class CalcServicer:
        def Add(self, request, context):
            return Value(v=request.a + request.b)

        def Mul(self, request, context):
            return Value(v=request.a * request.b)

        def Echo(self, request, context):
            return Blob(data=bytes(request.data))

    return CalcServicer()


def baseline_deployment(schema):
    net = Network()
    server = XrpcServer(net, "host:50051", schema.factory)
    server.add_service(schema.service("calc.Calc"), make_servicer(schema))
    channel = XrpcChannel(net, "host:50051")
    channel.drive = server.progress
    return channel, server


def offloaded_deployment(schema):
    svc = schema.service("calc.Calc")
    rdma_channel = create_channel()
    host = HostEngine(rdma_channel, schema)
    register_offloaded_servicer(host, svc, make_servicer(schema))
    dpu = DpuEngine(rdma_channel)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:50051", dpu, svc)
    channel = XrpcChannel(net, "dpu:50051")
    channel.drive = lambda: (front.progress(), host.progress())
    return channel, front, host


class TestBaselineServer:
    def test_unary_calls(self, schema):
        channel, server = baseline_deployment(schema)
        Stub = make_stub_class(schema.service("calc.Calc"), schema.factory)
        stub = Stub(channel)
        BinOp = schema["calc.BinOp"]
        assert stub.Add(BinOp(a=2, b=3)).v == 5
        assert stub.Mul(BinOp(a=4, b=5)).v == 20
        assert server.stats.requests == 2

    def test_unimplemented_method(self, schema):
        channel, server = baseline_deployment(schema)
        Value = schema["calc.Value"]
        result = []
        channel.call("/calc.Calc/Nope", Value(v=1), Value,
                     lambda rsp, status: result.append(status))
        server.progress()
        channel.poll()
        assert result == [StatusCode.UNIMPLEMENTED]

    def test_malformed_payload_rejected(self, schema):
        from repro.xrpc.framing import encode_request

        channel, server = baseline_deployment(schema)
        channel.socket.send(encode_request(1, "/calc.Calc/Add", b"\xff\xff\xff"))
        server.progress()
        assert server.stats.errors == 1

    def test_servicer_exception_is_internal(self, schema):
        net = Network()
        server = XrpcServer(net, "h:1", schema.factory)
        Value = schema["calc.Value"]

        class Bad:
            def Add(self, request, context):
                raise RuntimeError("boom")

            def Mul(self, request, context):
                return Value(v=0)

            def Echo(self, request, context):
                return request

        server.add_service(schema.service("calc.Calc"), Bad())
        channel = XrpcChannel(net, "h:1")
        channel.drive = server.progress
        Stub = make_stub_class(schema.service("calc.Calc"), schema.factory)
        stub = Stub(channel)
        with pytest.raises(RpcError):
            stub.Add(schema["calc.BinOp"](a=1, b=1))

    def test_missing_servicer_method_detected(self, schema):
        net = Network()
        server = XrpcServer(net, "h:1", schema.factory)

        class Partial:
            def Add(self, request, context):
                pass

        with pytest.raises(ServiceError, match="does not implement"):
            server.add_service(schema.service("calc.Calc"), Partial())

    def test_stub_type_checks_request(self, schema):
        channel, _ = baseline_deployment(schema)
        Stub = make_stub_class(schema.service("calc.Calc"), schema.factory)
        stub = Stub(channel)
        with pytest.raises(ServiceError, match="expected calc.BinOp"):
            stub.Add(schema["calc.Value"](v=1))


class TestOffloadedServer:
    def test_unary_calls_through_dpu(self, schema):
        channel, front, host = offloaded_deployment(schema)
        Stub = make_stub_class(schema.service("calc.Calc"), schema.factory)
        stub = Stub(channel)
        BinOp = schema["calc.BinOp"]
        assert stub.Add(BinOp(a=10, b=20)).v == 30
        assert stub.Mul(BinOp(a=-3, b=7)).v == -21
        assert front.requests_forwarded == 2
        assert front.responses_returned == 2

    def test_client_code_is_deployment_agnostic(self, schema):
        """§III-A: from the xRPC client's point of view there is no
        difference — the same stub code runs against both servers."""
        BinOp = schema["calc.BinOp"]
        Stub = make_stub_class(schema.service("calc.Calc"), schema.factory)

        def exercise(channel):
            stub = Stub(channel)
            return [stub.Add(BinOp(a=i, b=i)).v for i in range(5)]

        base_channel, _ = baseline_deployment(schema)
        off_channel, _, _ = offloaded_deployment(schema)
        assert exercise(base_channel) == exercise(off_channel)

    def test_many_pipelined_calls_one_channel(self, schema):
        channel, front, host = offloaded_deployment(schema)
        BinOp, Value = schema["calc.BinOp"], schema["calc.Value"]
        done = []
        for i in range(50):
            channel.call("/calc.Calc/Add", BinOp(a=i, b=1), Value,
                         lambda rsp, status, i=i: done.append((i, rsp.v)))
        for _ in range(200):
            channel.drive()
            channel.poll()
            if len(done) == 50:
                break
        assert sorted(done) == [(i, i + 1) for i in range(50)]

    def test_multiple_clients_multiplexed_on_one_dpu(self, schema):
        """§III-A: the DPU multiplexes many xRPC client connections onto
        the single host link."""
        svc = schema.service("calc.Calc")
        rdma_channel = create_channel()
        host = HostEngine(rdma_channel, schema)
        register_offloaded_servicer(host, svc, make_servicer(schema))
        dpu = DpuEngine(rdma_channel)
        host.send_bootstrap()
        dpu.receive_bootstrap()
        net = Network()
        front = OffloadedXrpcServer(net, "dpu:50051", dpu, svc)
        BinOp, Value = schema["calc.BinOp"], schema["calc.Value"]
        channels = [XrpcChannel(net, "dpu:50051", f"c{i}") for i in range(4)]
        done = {i: [] for i in range(4)}
        for i, ch in enumerate(channels):
            for k in range(10):
                ch.call("/calc.Calc/Mul", BinOp(a=i + 1, b=k), Value,
                        lambda rsp, status, i=i: done[i].append(rsp.v))
        for _ in range(200):
            front.progress()
            host.progress()
            for ch in channels:
                ch.poll()
            if all(len(v) == 10 for v in done.values()):
                break
        for i in range(4):
            assert sorted(done[i]) == sorted((i + 1) * k for k in range(10))

    def test_unimplemented_through_dpu(self, schema):
        channel, front, host = offloaded_deployment(schema)
        Value = schema["calc.Value"]
        result = []
        channel.call("/calc.Calc/Nope", Value(v=1), Value,
                     lambda rsp, status: result.append(status))
        for _ in range(20):
            channel.drive()
            channel.poll()
            if result:
                break
        assert result == [StatusCode.UNIMPLEMENTED]

    def test_bad_wire_payload_yields_invalid_argument(self, schema):
        from repro.xrpc.framing import encode_request

        channel, front, host = offloaded_deployment(schema)
        # Truncated varint in the payload.
        channel.socket.send(encode_request(1, "/calc.Calc/Add", b"\x08"))
        result = []
        channel._pending[1] = (schema["calc.Value"], lambda rsp, status: result.append(status))
        for _ in range(20):
            channel.drive()
            channel.poll()
            if result:
                break
        assert result == [StatusCode.INVALID_ARGUMENT]


class TestMethodIds:
    def test_assignment_deterministic_and_sorted(self, schema):
        svc = schema.service("calc.Calc")
        ids = assign_method_ids(svc)
        assert ids == {
            "/calc.Calc/Add": 1,
            "/calc.Calc/Echo": 2,
            "/calc.Calc/Mul": 3,
        }
        assert assign_method_ids(svc) == ids
