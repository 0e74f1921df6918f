"""Tests for the continuation-style stub API (§III-D)."""

from __future__ import annotations

import pytest

from repro.proto import compile_schema
from repro.xrpc import Network, StatusCode, XrpcChannel, XrpcServer, make_stub_class

SRC = """
syntax = "proto3";
package f;
message N { int64 v = 1; }
service Math { rpc Double (N) returns (N); }
"""


@pytest.fixture
def setup():
    schema = compile_schema(SRC)
    N = schema["f.N"]

    class Servicer:
        def Double(self, request, context):
            return N(v=request.v * 2)

    net = Network()
    server = XrpcServer(net, "h:1", schema.factory)
    server.add_service(schema.service("f.Math"), Servicer())
    channel = XrpcChannel(net, "h:1")
    channel.drive = server.progress
    Stub = make_stub_class(schema.service("f.Math"), schema.factory)
    return schema, channel, server, Stub(channel)


class TestFutureStyle:
    def test_future_fires_continuation(self, setup):
        schema, channel, server, stub = setup
        N = schema["f.N"]
        got = []
        stub.Double.future(N(v=21), lambda rsp, status: got.append((rsp.v, status)))
        assert got == []  # not yet — continuation style
        server.progress()
        channel.poll()
        assert got == [(42, StatusCode.OK)]

    def test_pipelined_futures(self, setup):
        schema, channel, server, stub = setup
        N = schema["f.N"]
        got = []
        for i in range(10):
            stub.Double.future(N(v=i), lambda rsp, status, i=i: got.append((i, rsp.v)))
        assert channel.outstanding == 10
        server.progress()
        channel.poll()
        assert got == [(i, 2 * i) for i in range(10)]
        assert channel.outstanding == 0

    def test_future_type_checks(self, setup):
        schema, channel, server, stub = setup
        from repro.xrpc import ServiceError

        with pytest.raises(ServiceError):
            stub.Double.future(object(), lambda rsp, status: None)
