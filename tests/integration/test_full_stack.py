"""Full-stack integration: the paper's workloads through the complete
Figure-1 path, multi-client multiplexing, metrics export, and fault
injection."""

from __future__ import annotations

import pytest

from repro.core import Flags, ProtocolConfig, create_channel
from repro.metrics import MetricsRegistry, Scraper, StabilityMonitor
from repro.offload import create_offload_pair
from repro.offload.engine import DpuEngine, HostEngine
from repro.proto import compile_schema, parse, serialize
from repro.workloads import WORKLOAD_PROTO, WorkloadFactory
from repro.xrpc import (
    Network,
    OffloadedXrpcServer,
    StatusCode,
    XrpcChannel,
    make_stub_class,
    register_offloaded_servicer,
)

SERVICE_PROTO = WORKLOAD_PROTO + """
service Bench {
  rpc PingSmall (Small) returns (Empty);
  rpc SumInts (IntArray) returns (IntArray);
  rpc Upper (CharArray) returns (CharArray);
}
"""


@pytest.fixture(scope="module")
def deployment():
    """The full offloaded deployment serving the paper's message types."""
    schema = compile_schema(SERVICE_PROTO)
    Empty = schema["bench.Empty"]
    IntArray = schema["bench.IntArray"]
    CharArray = schema["bench.CharArray"]

    class BenchServicer:
        def PingSmall(self, request, context):
            return Empty()

        def SumInts(self, request, context):
            # Echo plus a checksum element, reading the array zero-copy.
            values = list(request.values)
            values.append(sum(values) % (1 << 32))
            return IntArray(values=values)

        def Upper(self, request, context):
            return CharArray(data=request.data.upper())

    service = schema.service("bench.Bench")
    rdma = create_channel()
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, service, BenchServicer())
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    net = Network()
    front = OffloadedXrpcServer(net, "dpu:50051", dpu, service)
    return schema, net, front, host, rdma


def make_client(deployment, name="client"):
    schema, net, front, host, _ = deployment
    channel = XrpcChannel(net, "dpu:50051", name)
    channel.drive = lambda: (front.progress(), host.progress())
    Stub = make_stub_class(schema.service("bench.Bench"), schema.factory)
    return Stub(channel), channel


class TestPaperWorkloadsEndToEnd:
    def test_small(self, deployment):
        schema = deployment[0]
        stub, _ = make_client(deployment)
        factory = WorkloadFactory(schema=schema)
        msg = factory.small()
        assert len(serialize(msg)) == 15
        response = stub.PingSmall(msg)
        assert response.DESCRIPTOR.full_name == "bench.Empty"

    def test_int_array(self, deployment):
        schema = deployment[0]
        stub, _ = make_client(deployment)
        factory = WorkloadFactory(schema=schema)
        msg = factory.int_array(512)
        response = stub.SumInts(msg)
        assert list(response.values[:-1]) == list(msg.values)
        assert response.values[-1] == sum(msg.values) % (1 << 32)

    def test_char_array(self, deployment):
        schema = deployment[0]
        stub, _ = make_client(deployment)
        factory = WorkloadFactory(schema=schema)
        msg = factory.char_array(8000)
        assert len(serialize(msg)) == 8003
        response = stub.Upper(msg)
        assert response.data == msg.data.upper()

    def test_mixed_traffic_many_clients(self, deployment):
        schema, net, front, host, _ = deployment
        factory = WorkloadFactory(schema=schema)
        Empty, IntArray = schema["bench.Empty"], schema["bench.IntArray"]
        clients = [make_client(deployment, f"c{i}")[1] for i in range(3)]
        done = []
        for i, channel in enumerate(clients):
            for k in range(10):
                msg = factory.int_array(16)
                channel.call(
                    "/bench.Bench/SumInts", msg, IntArray,
                    lambda rsp, status, m=msg: done.append(
                        (status, list(rsp.values[:-1]) == list(m.values))
                    ),
                )
        for _ in range(300):
            front.progress()
            host.progress()
            for channel in clients:
                channel.poll()
            if len(done) == 30:
                break
        assert len(done) == 30
        assert all(status == StatusCode.OK and ok for status, ok in done)


class TestMetricsIntegration:
    def test_endpoint_exporter_scrapes_real_traffic(self):
        """End-to-end §VI pipeline: endpoint stats -> Prometheus registry
        -> scraper -> instant rate -> stability, with nothing refreshed
        between scrapes."""
        from functools import partial

        from repro.core import Response
        from repro.core.endpoint import endpoint_families

        cfg = ProtocolConfig(
            block_size=2048, block_alignment=1024, credits=32,
            send_buffer_size=256 * 1024, recv_buffer_size=256 * 1024, concurrency=256,
        )
        ch = create_channel(cfg, cfg)
        ch.server.register(1, lambda req: Response.empty())
        registry = MetricsRegistry()
        registry.add_collector(partial(endpoint_families, ch.client, "ror_client"))
        scraper = Scraper(registry)
        monitor = StabilityMonitor(window=3, tolerance=0.01)

        t = 0.0
        for tick in range(12):
            for _ in range(100):  # constant offered load per tick
                ch.client.enqueue_bytes(1, b"x" * 15, lambda v, f: None)
            for _ in range(5):
                ch.client.progress()
                ch.server.progress()
            t += 1.0
            scraper.scrape(t)
        series = scraper.get("ror_client_responses_received_total")
        assert monitor.is_stable(series)
        assert monitor.stable_rate(series) == pytest.approx(100.0)
        text = registry.expose()
        assert "ror_client_blocks_sent_total" in text
        assert "ror_client_credits" in text


class TestFaultInjection:
    SRC = """
    syntax = "proto3";
    package fi;
    message Req { string s = 1; repeated uint32 v = 2; }
    message Rsp { uint32 n = 1; }
    """

    def test_malformed_wire_rejected_at_dpu(self):
        """Garbage protobuf never reaches the host: the DPU's
        deserializer rejects it during in-block construction."""
        schema = compile_schema(self.SRC)
        Rsp = schema["fi.Rsp"]
        pair = create_offload_pair(
            schema, [(1, "fi.Req", lambda view, req: Rsp(n=1))]
        )
        from repro.proto import WireFormatError

        with pytest.raises(WireFormatError):
            pair.dpu.call(1, b"\x0a\xff\xff\xff\xff", lambda v, f: None)
        # The channel is still healthy afterwards.
        out = []
        pair.dpu.call(1, serialize(schema["fi.Req"](s="ok")), lambda v, f: out.append(f))
        pair.run_until_idle()
        assert out == [0]

    def test_corrupted_object_detected_by_host_vptr_check(self):
        """Flip the object's vptr in flight (simulated memory fault): the
        host-side view refuses the object and the RPC fails cleanly."""
        schema = compile_schema(self.SRC)
        Rsp = schema["fi.Rsp"]
        pair = create_offload_pair(
            schema, [(1, "fi.Req", lambda view, req: Rsp(n=view.v[0]))]
        )
        # Sabotage: corrupt each arriving object's first 8 bytes before the
        # host handler runs, by wrapping the registered handler.
        server = pair.channel.server
        original = server._handlers[1]

        def corrupting(request):
            request.space.write_u64(request.payload_addr, 0xDEAD)
            return original(request)

        server._handlers[1] = corrupting
        out = []
        pair.dpu.call(
            1, serialize(schema["fi.Req"](v=[5])), lambda v, f: out.append((bytes(v), f))
        )
        pair.run_until_idle()
        data, flags = out[0]
        assert flags & Flags.ERROR
        assert b"vptr" in data

    def test_corrupted_block_length_detected(self):
        """Corrupt a received block's preamble: the reader refuses it
        loudly instead of walking garbage."""
        from repro.core import BlockFormatError, ProtocolConfig, Response

        cfg = ProtocolConfig(
            block_size=2048, block_alignment=1024, credits=8,
            send_buffer_size=64 * 1024, recv_buffer_size=64 * 1024, concurrency=64,
        )
        from repro.rdma import Fabric

        fabric = Fabric(auto_flush=False)
        ch = create_channel(cfg, cfg, fabric=fabric)
        ch.server.register(1, lambda req: Response.empty())
        ch.client.enqueue_bytes(1, b"payload", lambda v, f: None)
        ch.client.flush()
        fabric.flush()  # block now sits in the server's RBuf
        # Corrupt the block length field (preamble bytes 4..8) at the
        # mirrored address.
        base = ch.server.rbuf.base
        ch.server.space.write(base + 4, (1 << 30).to_bytes(4, "little"))
        with pytest.raises(BlockFormatError):
            ch.server.progress()

    def test_handler_fault_does_not_poison_the_channel(self):
        schema = compile_schema(self.SRC)
        Rsp = schema["fi.Rsp"]
        calls = {"n": 0}

        def flaky(view, req):
            calls["n"] += 1
            if calls["n"] % 2:
                raise RuntimeError("flaky")
            return Rsp(n=calls["n"])

        pair = create_offload_pair(schema, [(1, "fi.Req", flaky)])
        results = []
        for i in range(6):
            pair.dpu.call(
                1, serialize(schema["fi.Req"](s=str(i))),
                lambda v, f: results.append(bool(f & Flags.ERROR)),
            )
        pair.run_until_idle()
        assert results == [True, False, True, False, True, False]
        assert pair.channel.server.stats.handler_errors == 3
