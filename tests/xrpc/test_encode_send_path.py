"""The zero-copy send path (PR 3 acceptance criterion).

In generated mode (the default), the xRPC request and response payloads
are emitted by the generated encoder *directly into the outgoing frame
buffer* — there is
no intermediate full-payload ``bytes`` object between ``serialize()`` and
``socket.send()``.  ``ENCODE_PLAN_METRICS.copies_avoided`` counts exactly
those direct emissions, so a unary round trip must score 2 (request into
the client frame + response into the server frame) and zero in
interpretive mode.
"""

from __future__ import annotations

from repro.core import Response, create_channel
from repro.proto import ENCODE_PLAN_METRICS, emit_writer, parse, serialize

from tests.xrpc.test_rpc_end_to_end import (  # noqa: F401 — schema fixture
    baseline_deployment,
    offloaded_deployment,
    schema,
)


def test_unary_call_avoids_payload_copies(schema):
    channel, server = baseline_deployment(schema)
    BinOp, Value = schema["calc.BinOp"], schema["calc.Value"]
    request = BinOp(a=17, b=25)
    expected_bytes = len(serialize(request)) + len(serialize(Value(v=42)))

    ENCODE_PLAN_METRICS.reset()
    reply = channel.call_sync("/calc.Calc/Add", request, Value)
    assert reply.v == 42
    # One direct emission into the request frame, one into the response
    # frame: the entire request→frame→server→frame path materialized no
    # intermediate full-payload bytes object.
    assert ENCODE_PLAN_METRICS.copies_avoided == 2
    assert ENCODE_PLAN_METRICS.bytes_emitted == expected_bytes


def test_interpretive_mode_counts_nothing(schema):
    net_channel, server = baseline_deployment(schema)
    net_channel.encode_mode = "interpretive"
    server.encode_mode = "interpretive"
    BinOp, Value = schema["calc.BinOp"], schema["calc.Value"]

    ENCODE_PLAN_METRICS.reset()
    reply = net_channel.call_sync("/calc.Calc/Add", BinOp(a=2, b=3), Value)
    assert reply.v == 5
    assert ENCODE_PLAN_METRICS.copies_avoided == 0
    assert ENCODE_PLAN_METRICS.bytes_emitted == 0


def test_offloaded_path_emits_into_frames(schema):
    channel, front, host = offloaded_deployment(schema)
    BinOp, Value = schema["calc.BinOp"], schema["calc.Value"]

    ENCODE_PLAN_METRICS.reset()
    reply = channel.call_sync("/calc.Calc/Add", BinOp(a=8, b=9), Value)
    assert reply.v == 17
    # The client request is emitted into its frame; the host response is
    # emitted straight into the registered RDMA block via
    # emit_writer (the DPU then reframes the block view with one copy).
    assert ENCODE_PLAN_METRICS.copies_avoided == 2


def test_rdma_emit_path_round_trips():
    """``emit_writer`` hands both directions of the RPC-over-RDMA
    datapath one payload-writer shape — ``Response(size, writer)`` on
    the server, ``enqueue(…, size, writer, …)`` on the client — that
    emits into the registered block, and the counter sees both
    emissions."""
    from repro.proto import compile_schema

    schema = compile_schema(
        'syntax = "proto3"; package z; message P { uint64 x = 1; bytes pad = 2; }'
    )
    P = schema["z.P"]
    channel = create_channel()
    request = P(x=7, pad=b"\xab" * 100)
    reply = P(x=8, pad=b"\xcd" * 80)
    got: list = []

    def handler(incoming):
        assert parse(P, bytes(incoming.payload_view())) == request
        return Response(*emit_writer(reply))

    channel.server.register(1, handler)

    ENCODE_PLAN_METRICS.reset()
    size, writer = emit_writer(request)
    channel.client.enqueue(1, size, writer, lambda view, flags: got.append(bytes(view)))
    for _ in range(50):
        channel.client.progress()
        channel.server.progress()
        if got:
            break
    assert got and parse(P, got[0]) == reply
    # request emitted into the send block + response emitted into its block
    assert ENCODE_PLAN_METRICS.copies_avoided == 2
