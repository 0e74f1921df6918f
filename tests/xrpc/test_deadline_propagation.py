"""Deadline propagation across the offload datapath (docs/OVERLOAD.md).

A client timeout becomes an absolute deadline word on the wire; every
stage behind the server address — DPU ingress, host dispatch, response
emit — drops expired work instead of spending further cycles on it, and
the client learns *which* stage dropped it.  The semantics must be
identical over the inproc and shm fabrics."""

from __future__ import annotations

import itertools

import pytest

from repro.core import create_channel
from repro.offload.engine import DpuEngine, HostEngine
from repro.proto import compile_schema
from repro.runtime.overload import ManualClock, install_clock, installed_clock
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    StatusCode,
    XrpcChannel,
    XrpcServer,
    parse_overload_detail,
    register_offloaded_servicer,
)
from repro.xrpc.channel import RpcTimeoutError

SRC = """
syntax = "proto3";
package dl;
message Req { int64 x = 1; }
message Rsp { int64 x = 1; }
service Svc { rpc Do (Req) returns (Rsp); }
"""

TRANSPORTS = ("inproc", "shm")
_names = itertools.count()


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


@pytest.fixture
def clock():
    previous = installed_clock()
    manual = ManualClock(1_000)
    install_clock(manual)
    yield manual
    install_clock(previous)


class CountingServicer:
    def __init__(self, Rsp, on_call=None):
        self.Rsp = Rsp
        self.calls = 0
        self.on_call = on_call

    def Do(self, request, context):
        self.calls += 1
        if self.on_call is not None:
            self.on_call()
        return self.Rsp(x=request.x)


def make_offloaded(schema, transport, servicer):
    svc = schema.service("dl.Svc")
    if transport == "shm":
        rdma = create_channel(transport="shm", name=f"dl-{next(_names)}")
    else:
        rdma = create_channel()
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, svc, servicer)
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:1", dpu, svc)
    channel = XrpcChannel(net, "dpu:1")
    return channel, front, host, rdma


def start_call(channel, schema, out, timeout_us):
    channel.call(
        "/dl.Svc/Do",
        schema["dl.Req"](x=7),
        schema["dl.Rsp"],
        lambda rsp, status: out.append(
            (rsp, status, bytes(channel.last_error_detail))
        ),
        timeout_us=timeout_us,
    )


def drive(channel, front, host, out, iters=400):
    for _ in range(iters):
        front.progress()
        host.progress()
        channel.poll()
        if out:
            return
    raise AssertionError("call never completed")


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestOffloadedStages:
    def test_expired_on_arrival_drops_at_dpu_ingress(
        self, schema, clock, transport
    ):
        servicer = CountingServicer(schema["dl.Rsp"])
        channel, front, host, rdma = make_offloaded(schema, transport, servicer)
        try:
            out = []
            start_call(channel, schema, out, timeout_us=500)
            clock.advance(1_000)  # now 2000 µs > deadline 1500 µs
            front.progress()
            channel.poll()
            # Dropped before the arena deserializer ever saw it: nothing
            # crossed to the host, no decode, no dispatch.
            assert front.deadline_expired["dpu_ingress"] == 1
            assert rdma.server.stats.requests_received == 0
            assert rdma.server.deadline_expired["host_dispatch"] == 0
            assert servicer.calls == 0
            assert host.host_deserialized == 0
            rsp, status, detail = out[0]
            assert rsp is None
            assert status == StatusCode.DEADLINE_EXCEEDED
            assert parse_overload_detail(detail) == ("dpu_ingress", 0)
        finally:
            if transport == "shm":
                rdma.close()

    def test_expired_in_flight_drops_at_host_dispatch(
        self, schema, clock, transport
    ):
        servicer = CountingServicer(schema["dl.Rsp"])
        channel, front, host, rdma = make_offloaded(schema, transport, servicer)
        try:
            out = []
            start_call(channel, schema, out, timeout_us=500)
            # Forward through DPU ingress while the deadline is live...
            for _ in range(20):
                front.progress()
            assert front.deadline_expired["dpu_ingress"] == 0
            # ...then let it expire sitting in the host's receive buffer.
            clock.advance(1_000)
            drive(channel, front, host, out)
            assert rdma.server.deadline_expired["host_dispatch"] == 1
            assert servicer.calls == 0  # answered without dispatch work
            rsp, status, detail = out[0]
            assert rsp is None
            assert status == StatusCode.DEADLINE_EXCEEDED
            assert parse_overload_detail(detail) == ("host_dispatch", 0)
        finally:
            if transport == "shm":
                rdma.close()

    def test_handler_overrun_drops_at_response_emit(
        self, schema, clock, transport
    ):
        # The handler itself burns past the deadline: the work is done
        # but emitting the full response would be wasted wire.
        servicer = CountingServicer(
            schema["dl.Rsp"], on_call=lambda: clock.advance(1_000)
        )
        channel, front, host, rdma = make_offloaded(schema, transport, servicer)
        try:
            out = []
            start_call(channel, schema, out, timeout_us=500)
            drive(channel, front, host, out)
            assert servicer.calls == 1  # it did run
            assert rdma.server.deadline_expired["response_emit"] == 1
            rsp, status, detail = out[0]
            assert rsp is None
            assert status == StatusCode.DEADLINE_EXCEEDED
            assert parse_overload_detail(detail) == ("response_emit", 0)
        finally:
            if transport == "shm":
                rdma.close()

    def test_live_deadline_completes_normally(self, schema, clock, transport):
        servicer = CountingServicer(schema["dl.Rsp"])
        channel, front, host, rdma = make_offloaded(schema, transport, servicer)
        try:
            out = []
            start_call(channel, schema, out, timeout_us=1_000_000)
            drive(channel, front, host, out)
            rsp, status, _ = out[0]
            assert status == StatusCode.OK
            assert rsp.x == 7
            assert servicer.calls == 1
            assert front.deadline_expired["dpu_ingress"] == 0
            assert rdma.server.deadline_expired == {
                "host_dispatch": 0, "response_emit": 0,
            }
        finally:
            if transport == "shm":
                rdma.close()


class TestBaselineServer:
    def make(self, schema):
        net = Network()
        server = XrpcServer(net, "host:1", schema.factory)
        servicer = CountingServicer(schema["dl.Rsp"])
        server.add_service(schema.service("dl.Svc"), servicer)
        channel = XrpcChannel(net, "host:1")
        return channel, server, servicer

    def test_expired_drops_at_dispatch(self, schema, clock):
        channel, server, servicer = self.make(schema)
        out = []
        start_call(channel, schema, out, timeout_us=500)
        clock.advance(1_000)
        server.progress()
        channel.poll()
        assert server.deadline_expired["dispatch"] == 1
        assert servicer.calls == 0
        rsp, status, detail = out[0]
        assert status == StatusCode.DEADLINE_EXCEEDED
        assert parse_overload_detail(detail) == ("dispatch", 0)

    def test_call_sync_reports_dropping_stage(self, schema, clock):
        channel, server, servicer = self.make(schema)

        def drive_and_expire():
            # The call has been sent by the time drive runs; expire it
            # before the server dequeues.
            if clock.now_us() < 10_000:
                clock.advance(10_000)
            server.progress()

        channel.drive = drive_and_expire
        with pytest.raises(RpcTimeoutError) as excinfo:
            channel.call_sync(
                "/dl.Svc/Do", schema["dl.Req"](x=1), schema["dl.Rsp"],
                max_iters=100, timeout_us=500,
            )
        assert excinfo.value.stage == "dispatch"
        assert excinfo.value.status == StatusCode.DEADLINE_EXCEEDED
        assert servicer.calls == 0
        # A datapath expiry is terminal — never retried, even idempotent.
        assert not XrpcChannel._retryable(excinfo.value, idempotent=True)

    def test_local_iteration_timeout_is_client_stage(self, schema, clock):
        channel, server, servicer = self.make(schema)
        channel.drive = lambda: None  # server never runs
        with pytest.raises(RpcTimeoutError) as excinfo:
            channel.call_sync(
                "/dl.Svc/Do", schema["dl.Req"](x=1), schema["dl.Rsp"],
                max_iters=5,
            )
        assert excinfo.value.stage == "client"
