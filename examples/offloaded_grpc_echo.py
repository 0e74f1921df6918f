#!/usr/bin/env python3
"""The paper's Figure 1, end to end: gRPC-style clients against a server
that has been moved onto the DPU — with the SAME servicer class running
unmodified in both deployments (the compatibility layer's promise).

Deployment A (baseline):   client ── xRPC ──> host (framing +
                           deserialization + logic on host cores)

Deployment B (offloaded):  client ── xRPC ──> DPU (framing +
                           deserialization) ── RPC over RDMA ──> host
                           (logic only, on ready objects)

The client code is identical in both cases; only the server address
changes (§III-A).

Run:  python examples/offloaded_grpc_echo.py
"""

from repro.deploy import build
from repro.proto import compile_schema
from repro.xrpc import make_stub_class

schema = compile_schema(
    """
    syntax = "proto3";
    package echo;

    message EchoRequest { string text = 1; uint32 repeat = 2; }
    message EchoResponse { string text = 1; uint32 length = 2; }

    service Echo {
      rpc Say (EchoRequest) returns (EchoResponse);
    }
    """
)
EchoRequest = schema["echo.EchoRequest"]
EchoResponse = schema["echo.EchoResponse"]
echo_service = schema.service("echo.Echo")


class EchoServicer:
    """Ordinary application code.  `request` is a parsed message in the
    baseline and a zero-copy C++-object view when offloaded — field
    access is identical, so the class needs no changes."""

    def Say(self, request, context):
        text = request.text * max(1, request.repeat)
        return EchoResponse(text=text, length=len(text))


def run_client(channel, label: str) -> None:
    Stub = make_stub_class(echo_service, schema.factory)
    stub = Stub(channel)
    for text, repeat in [("ping", 1), ("dpu!", 3), ("x", 10)]:
        response = stub.Say(EchoRequest(text=text, repeat=repeat))
        print(f"  [{label}] Say({text!r} x{repeat}) -> {response.text!r} (len {response.length})")


def main() -> None:
    # Both deployments come from the one builder (repro.deploy): same
    # schema, same service, same servicer class — only the kind differs.

    # ---- Deployment A: traditional host-side gRPC server -------------------
    print("baseline deployment (host terminates xRPC, deserializes itself):")
    with build("baseline", schema, echo_service, EchoServicer()) as baseline:
        run_client(baseline.channel(), "baseline")
        print(f"  host parsed {baseline.front.stats.requests} requests itself\n")

    # ---- Deployment B: the server moves to the DPU ---------------------------
    print("offloaded deployment (DPU terminates xRPC and deserializes):")
    # build() registers the servicer on the host engine, ships the ADT to
    # the DPU once (§V-B) and only then lets the front end listen.  The
    # client code is the same call: channel() — its drive hook runs one
    # pass of the DPU front end, then one of the host engine.
    with build("offloaded", schema, echo_service, EchoServicer()) as offloaded:
        run_client(offloaded.channel(), "offloaded")

        census = offloaded.dpu.stats
        print(
            f"  DPU deserialized {census.messages} messages "
            f"({census.utf8_bytes_validated} UTF-8 bytes validated); "
            f"host ran business logic only"
        )
        fabric = offloaded.rdma.fabric
        print(
            f"  PCIe bytes (simulated fabric): "
            f"{fabric.total_bytes} across "
            f"{fabric.total_operations} RDMA writes"
        )
        print(
            f"  front end forwarded {offloaded.front.requests_forwarded} requests, "
            f"{offloaded.front.fallback_requests} through the host-parse fallback"
        )


if __name__ == "__main__":
    main()
