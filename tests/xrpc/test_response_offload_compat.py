"""Tests for bidirectional offload through the gRPC compatibility layer."""

from __future__ import annotations

import pytest

from repro.core import create_channel
from repro.offload.engine import DpuEngine, HostEngine
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
package bo;
message Req { string text = 1; repeated uint64 nums = 2; }
message Rsp { string upper = 1; uint64 total = 2; Meta meta = 3; }
message Meta { repeated string notes = 1; }
service S { rpc Go (Req) returns (Rsp); }
"""


def deployment(offload_responses: bool):
    schema = compile_schema(SRC)
    Rsp = schema["bo.Rsp"]

    class Servicer:
        def Go(self, request, context):
            rsp = Rsp(upper=request.text.upper(), total=sum(request.nums))
            rsp.meta.notes.extend(["a", "long note exceeding the sso capacity!!"])
            return rsp

    svc = schema.service("bo.S")
    rdma = create_channel()
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, svc, Servicer(), offload_responses=offload_responses)
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:1", dpu, svc)
    channel = XrpcChannel(net, "dpu:1")
    channel.drive = lambda: (front.progress(), host.progress())
    stub = make_stub_class(svc, schema.factory)(channel)
    return schema, stub, dpu


class TestBidirectionalOffload:
    def test_clients_cannot_tell_the_difference(self):
        """Same call, same answer, whether responses cross as wire bytes
        or as objects serialized on the DPU."""
        schema_a, stub_a, _ = deployment(offload_responses=False)
        schema_b, stub_b, _ = deployment(offload_responses=True)
        Req_a, Req_b = schema_a["bo.Req"], schema_b["bo.Req"]
        ra = stub_a.Go(Req_a(text="hi", nums=[1, 2, 3]))
        rb = stub_b.Go(Req_b(text="hi", nums=[1, 2, 3]))
        assert ra.upper == rb.upper == "HI"
        assert ra.total == rb.total == 6
        assert list(ra.meta.notes) == list(rb.meta.notes)

    def test_output_types_in_adt_only_when_offloaded(self):
        _, _, dpu_off = deployment(offload_responses=False)
        assert dpu_off.method_outputs == {}
        names = {e.full_name for e in dpu_off.adt.entries}
        assert names == {"bo.Req"}

        _, _, dpu_on = deployment(offload_responses=True)
        assert len(dpu_on.method_outputs) == 1
        names = {e.full_name for e in dpu_on.adt.entries}
        assert names == {"bo.Req", "bo.Rsp", "bo.Meta"}

    def test_many_calls(self):
        schema, stub, dpu = deployment(offload_responses=True)
        Req = schema["bo.Req"]
        for i in range(30):
            r = stub.Go(Req(text=f"t{i}", nums=[i, i]))
            assert r.upper == f"T{i}"
            assert r.total == 2 * i
