"""A connection can fail only itself (ROADMAP item 4(a): the "frame
header" injection point, the client that hangs up, and the first payload
injection point — a well-framed request whose payload lies).

The front door terminates untrusted connections.  Three things a client
can do to it — bytes that are no frame, a method name that is not UTF-8,
hanging up with a request in flight — must cost that connection and
nothing else: ``Deployment.drive()`` never raises, the well-behaved
client on a second connection is answered OK on the same and on the next
round trip, and the protocol's books (credits, both §IV-D ID pools) end
where an undisturbed exchange leaves them.  A fourth — a WIRE_FIXED
payload whose count slots overrun it — must cost that request only.
Every in-process kind ``repro.deploy.build`` makes runs the same script.
"""

from __future__ import annotations

import struct

import pytest

from repro.deploy import build
from repro.proto import WIRE_FIXED, serialize
from repro.proto.fixed_wire import negotiation_hash, service_types
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import FrameDecoder, FrameType, StatusCode, encode_request
from repro.xrpc.framing import encode_setup, request_frame_size, write_request_header
from repro.xrpc.transport import ConnectionClosed

KINDS = {
    "baseline": ("baseline", "inproc"),
    "offloaded-inproc": ("offloaded", "inproc"),
    "offloaded-shm": ("offloaded", "shm"),
}


def _frame_with_method(method: bytes, call_id: int = 1) -> bytes:
    buf = bytearray(request_frame_size(len(method), 0))
    write_request_header(buf, call_id, method, 0)
    return bytes(buf)


HOSTILE = {
    "unknown-frame-type": b"\xff" * 32,
    "method-not-utf8": _frame_with_method(b"/bench.Bench/\xff\xfePing"),
}


class _Client:
    def __init__(self, deployment, name: str) -> None:
        self.deployment = deployment
        self.socket = deployment.connect(name)
        self.decoder = FrameDecoder()

    def received(self) -> list:
        data = self.socket.recv(1 << 20)
        if data:
            self.decoder.feed(data)
        return list(self.decoder.frames())

    def round_trip(self, call_id: int, wire: bytes, passes: int = 3):
        """Send one request; its answer must arrive within ``passes``
        drive passes (one suffices in place, an offloaded request takes
        the pass that forwards it and the one that returns)."""
        self.socket.send(encode_request(call_id, "/bench.Bench/PingSmall", wire))
        for _ in range(passes):
            self.deployment.drive()
            frames = self.received()
            if frames:
                (frame,) = frames
                return frame
        raise AssertionError(f"call {call_id} unanswered after {passes} passes")


@pytest.fixture(params=sorted(KINDS))
def stack(request):
    kind, transport = KINDS[request.param]
    schema, service, servicer = bench_service()
    wire = serialize(WorkloadFactory(schema=schema).small())
    with build(kind, schema, service, servicer, transport=transport) as deployment:
        yield deployment, wire


def _assert_ok(frame, call_id: int) -> None:
    assert (frame.frame_type, frame.call_id, frame.status) == (
        FrameType.RESPONSE, call_id, StatusCode.OK)


@pytest.mark.parametrize("hostile", sorted(HOSTILE))
def test_a_stream_that_fails_framing_costs_only_its_connection(stack, hostile):
    deployment, wire = stack
    bad, good = deployment.connect("hostile"), _Client(deployment, "good")
    bad.send(HOSTILE[hostile])
    _assert_ok(good.round_trip(1, wire), 1)
    assert deployment.front.framing_errors == 1
    # The connection was closed, not left to fail every later pass.
    with pytest.raises(ConnectionClosed):
        bad.send(b"more")
    for call_id in (3, 5):
        _assert_ok(good.round_trip(call_id, wire), call_id)
    assert deployment.front.framing_errors == 1


def test_frames_ahead_of_the_hostile_bytes_are_still_served(stack):
    deployment, wire = stack
    client = _Client(deployment, "half-good")
    client.socket.send(encode_request(1, "/bench.Bench/PingSmall", wire) + b"\xff" * 32)
    for _ in range(3):
        deployment.drive()
    assert deployment.front.framing_errors == 1
    # (offloaded: forwarded, and its late reply dropped with the connection)
    answered = [f.call_id for f in client.received()]
    assert answered in ([1], [])
    assert len(answered) + deployment.front.replies_dropped == 1


def _books(deployment) -> tuple:
    rdma = deployment.rdma
    return (
        rdma.client.credits.available, rdma.server.credits.available,
        rdma.client.id_pool.fingerprint(), rdma.server.id_pool.fingerprint(),
        rdma.client.allocator.live_count, rdma.server.allocator.live_count,
        len(rdma.server._outstanding_responses),
    )


@pytest.mark.parametrize("hang_up", [False, True], ids=["control", "hang-up"])
def test_a_client_that_hangs_up_loses_only_its_own_reply(stack, hang_up):
    """Two clients, both requests in one pass (offloaded: one block, one
    response block); one hangs up before the answers come back."""
    deployment, wire = stack
    quitter, stayer = _Client(deployment, "quitter"), _Client(deployment, "stayer")
    quitter.socket.send(encode_request(1, "/bench.Bench/PingSmall", wire))
    stayer.socket.send(encode_request(3, "/bench.Bench/PingSmall", wire))
    if deployment.host is not None:
        deployment.front.progress()  # both forwarded, one block
        deployment.host.progress()  # the response block is on its way
        assert deployment.rdma.client.stats.blocks_sent == 1
    if hang_up:
        quitter.socket.close()
    deployment.drive()
    deployment.drive()
    (frame,) = stayer.received()
    _assert_ok(frame, 3)
    assert deployment.front.replies_dropped == (1 if hang_up else 0)
    # The next exchange carries the acknowledgment of that response
    # block: its credit and its request IDs come back (§IV-B/D).
    _assert_ok(stayer.round_trip(5, wire), 5)
    if deployment.rdma is not None:
        config = deployment.rdma.client.config
        assert _books(deployment) == (
            config.credits, deployment.rdma.server.config.credits - 1,
            deployment.rdma.client.id_pool.fingerprint(),
            deployment.rdma.client.id_pool.fingerprint(),
            0, 1, 1,
        )
    # ...and the door let go of the dead connection.
    assert len(deployment.front._connections) == (1 if hang_up else 2)


def test_a_fixed_payload_whose_counts_lie_costs_only_its_request(stack):
    """A negotiated connection, a well-framed request, a hostile payload:
    ``bench.IntArray``'s one count slot announces 200 000 ints and no
    element follows.  The request is answered INVALID_ARGUMENT — offloaded,
    by the size estimate, before a block is opened for the 800 kB the
    count asks for — and the same connection is served on."""
    deployment, wire = stack
    client = _Client(deployment, "negotiated")
    client.socket.send(encode_setup(negotiation_hash(service_types(bench_service()[1]))))
    deployment.drive()
    (ack,) = client.received()
    assert (ack.frame_type, ack.status) == (FrameType.SETUP_ACK, StatusCode.OK)

    blocks_opened = []
    if deployment.rdma is not None:
        sender = deployment.rdma.client
        alloc = sender._alloc_block
        sender._alloc_block = lambda capacity: blocks_opened.append(capacity) or alloc(capacity)

    method, payload = b"/bench.Bench/SumInts", struct.pack("<I", 200_000)
    frame = bytearray(request_frame_size(len(method), len(payload)))
    frame[write_request_header(frame, 1, method, len(payload), WIRE_FIXED):] = payload
    client.socket.send(bytes(frame))
    for _ in range(3):
        deployment.drive()
    (answer,) = client.received()
    assert (answer.call_id, answer.status) == (1, StatusCode.INVALID_ARGUMENT)
    assert blocks_opened == []

    for call_id in (3, 5):
        _assert_ok(client.round_trip(call_id, wire), call_id)
    assert deployment.front.framing_errors == 0
