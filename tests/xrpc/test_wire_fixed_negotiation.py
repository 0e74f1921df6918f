"""WIRE_FIXED negotiation and the branchless wire, end to end.

The SETUP/SETUP_ACK handshake (docs/PROTOCOL.md) lets a client and a
server prove they compute byte-identical fixed layouts before either
side emits a tagless frame.  These tests drive the handshake and the
fixed wire through both deployments — the baseline xRPC server and the
DPU front end — plus the degradation paths: hash mismatch, mid-connection
opt-out, per-message fallback for unmeasurable messages, and DPU crash.
"""

from __future__ import annotations

import pytest

from repro.core import create_channel
from repro.offload.engine import DpuEngine, HostEngine
from repro.proto import WIRE_FIXED, compile_schema, get_fixed_layout
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    XrpcChannel,
    XrpcServer,
    make_stub_class,
    register_offloaded_servicer,
)

SRC = """
syntax = "proto3";
package fxc;
message BinOp { int64 a = 1; int64 b = 2; }
message Value { int64 v = 1; }
message Blob { bytes data = 1; }
service Calc {
  rpc Add (BinOp) returns (Value);
  rpc Echo (Blob) returns (Blob);
}
"""


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


def make_servicer(schema):
    Value, Blob = schema["fxc.Value"], schema["fxc.Blob"]

    class CalcServicer:
        def Add(self, request, context):
            return Value(v=request.a + request.b)

        def Echo(self, request, context):
            return Blob(data=bytes(request.data))

    return CalcServicer()


def baseline_deployment(schema, layout_salt=""):
    net = Network()
    server = XrpcServer(net, "host:1", schema.factory, layout_salt=layout_salt)
    server.add_service(schema.service("fxc.Calc"), make_servicer(schema))
    channel = XrpcChannel(net, "host:1")
    channel.drive = server.progress
    return channel, server


def offloaded_deployment(schema, layout_salt="", decode_mode="generated",
                         transport="inproc"):
    svc = schema.service("fxc.Calc")
    rdma = create_channel(transport=transport)
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, svc, make_servicer(schema))
    dpu = DpuEngine(rdma, decode_mode=decode_mode)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:1", dpu, svc, layout_salt=layout_salt)
    channel = XrpcChannel(net, "dpu:1")
    channel.drive = lambda: (front.progress(), host.progress())
    return channel, front, host, dpu, rdma


class TestBaselineNegotiation:
    def test_handshake_and_fixed_calls(self, schema):
        channel, server = baseline_deployment(schema)
        svc = schema.service("fxc.Calc")
        assert channel.negotiate_fixed(svc) is True
        assert channel.wire_fixed
        assert server.setup_matches == 1
        stub = make_stub_class(svc, schema.factory)(channel)
        BinOp = schema["fxc.BinOp"]
        assert stub.Add(BinOp(a=7, b=35)).v == 42
        assert stub.Echo(schema["fxc.Blob"](data=b"\x00\xffhey")).data == b"\x00\xffhey"

    def test_hash_mismatch_falls_back_to_standard(self, schema):
        channel, server = baseline_deployment(schema, layout_salt="drift")
        svc = schema.service("fxc.Calc")
        assert channel.negotiate_fixed(svc) is False
        assert not channel.wire_fixed
        assert server.setup_mismatches == 1
        stub = make_stub_class(svc, schema.factory)(channel)
        assert stub.Add(schema["fxc.BinOp"](a=1, b=2)).v == 3

    def test_mid_connection_disable(self, schema):
        channel, server = baseline_deployment(schema)
        svc = schema.service("fxc.Calc")
        assert channel.negotiate_fixed(svc) is True
        stub = make_stub_class(svc, schema.factory)(channel)
        BinOp = schema["fxc.BinOp"]
        assert stub.Add(BinOp(a=1, b=1)).v == 2
        channel.disable_fixed()
        assert not channel.wire_fixed
        assert stub.Add(BinOp(a=2, b=2)).v == 4

    def test_salted_client_also_mismatches(self, schema):
        channel, server = baseline_deployment(schema)
        assert channel.negotiate_fixed(schema.service("fxc.Calc"), salt="x") is False
        assert server.setup_mismatches == 1

    def test_fixed_frames_actually_on_the_wire(self, schema):
        """The negotiated connection really carries WIRE_FIXED request
        frames — the request payload is the layout's tagless encoding."""
        channel, server = baseline_deployment(schema)
        svc = schema.service("fxc.Calc")
        assert channel.negotiate_fixed(svc)
        BinOp, Value = schema["fxc.BinOp"], schema["fxc.Value"]
        layout = get_fixed_layout(BinOp.DESCRIPTOR, schema.factory)
        seen = []
        original = server._serve

        def spy(conn, frame, lane):
            seen.append((frame.wire_mode, bytes(frame.message)))
            return original(conn, frame, lane)

        server._serve = spy
        msg = BinOp(a=5, b=9)
        done = []
        channel.call("/fxc.Calc/Add", msg, Value,
                     lambda rsp, status: done.append(rsp))
        for _ in range(50):
            channel.drive()
            channel.poll()
            if done:
                break
        assert done and done[0].v == 14
        assert seen == [(WIRE_FIXED, layout.encode(msg))]


class TestOffloadedNegotiation:
    @pytest.mark.parametrize("transport", ["inproc", "shm"])
    def test_handshake_and_fixed_calls(self, schema, transport):
        channel, front, host, dpu, rdma = offloaded_deployment(
            schema, transport=transport
        )
        try:
            svc = schema.service("fxc.Calc")
            assert channel.negotiate_fixed(svc) is True
            assert front.setup_matches == 1
            stub = make_stub_class(svc, schema.factory)(channel)
            BinOp = schema["fxc.BinOp"]
            for i in range(8):
                assert stub.Add(BinOp(a=i, b=100)).v == i + 100
            assert front.fallback_requests == 0
        finally:
            rdma.close()

    def test_lying_count_fails_the_call_before_a_block_is_opened(self, schema):
        """``fxc.Blob``'s length slot announces 200 000 bytes and none
        follow: ``DpuEngine.call`` raises out of the size estimate —
        nothing was reserved for what the slot asked for."""
        import struct

        from repro.offload import DeserializeError
        from repro.xrpc import assign_method_ids

        channel, front, host, dpu, rdma = offloaded_deployment(schema)
        try:
            opened = []
            alloc = rdma.client._alloc_block
            rdma.client._alloc_block = lambda capacity: opened.append(capacity) or alloc(capacity)
            echo = assign_method_ids(schema.service("fxc.Calc"))["/fxc.Calc/Echo"]
            with pytest.raises(DeserializeError, match="blob overruns fixed payload"):
                dpu.call(echo, struct.pack("<I", 200_000), lambda view, flags: None,
                         wire_mode=WIRE_FIXED)
            assert opened == []
        finally:
            rdma.close()

    @pytest.mark.parametrize("decode_mode", ["interpretive", "generated"])
    def test_every_decode_mode_serves_fixed(self, schema, decode_mode):
        channel, front, host, dpu, rdma = offloaded_deployment(
            schema, decode_mode=decode_mode
        )
        try:
            svc = schema.service("fxc.Calc")
            assert channel.negotiate_fixed(svc) is True
            stub = make_stub_class(svc, schema.factory)(channel)
            assert stub.Add(schema["fxc.BinOp"](a=3, b=4)).v == 7
        finally:
            rdma.close()

    def test_front_end_salt_mismatch(self, schema):
        channel, front, host, dpu, rdma = offloaded_deployment(
            schema, layout_salt="drift"
        )
        try:
            svc = schema.service("fxc.Calc")
            assert channel.negotiate_fixed(svc) is False
            assert front.setup_mismatches == 1
            stub = make_stub_class(svc, schema.factory)(channel)
            assert stub.Add(schema["fxc.BinOp"](a=6, b=6)).v == 12
        finally:
            rdma.close()

    def test_crash_degrades_to_host_fixed_parse(self, schema):
        """A fixed-wire request arriving while the DPU engine is down is
        forwarded raw with FIXED_PAYLOAD set; the host parses the fixed
        layout itself."""
        channel, front, host, dpu, rdma = offloaded_deployment(schema)
        try:
            svc = schema.service("fxc.Calc")
            assert channel.negotiate_fixed(svc) is True
            stub = make_stub_class(svc, schema.factory)(channel)
            BinOp = schema["fxc.BinOp"]
            assert stub.Add(BinOp(a=1, b=2)).v == 3
            dpu.crash("test")
            assert stub.Add(BinOp(a=20, b=22)).v == 42
            assert front.fallback_requests >= 1
            assert host.host_deserialized >= 1
            dpu.revive()
            host.send_bootstrap()
            dpu.receive_bootstrap()
            assert stub.Add(BinOp(a=2, b=3)).v == 5
        finally:
            rdma.close()
