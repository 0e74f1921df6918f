"""One request stream, four deployments, identical bytes (ROADMAP 5(d)).

The compatibility layer's promise is that a client cannot tell where its
request was parsed: the host-parse baseline, the offloaded stack over
either fabric, and the three-process deployment must answer the same
frames with the same bytes.  Every deployment here comes from
``repro.deploy.build`` and is reached through ``Deployment.connect()``
— a raw socket, so what is compared is what was on the wire.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time

import pytest

from repro.deploy import build
from repro.proto import serialize
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import FrameDecoder, FrameType, StatusCode, encode_request

DEPLOYMENTS = {
    "baseline": ("baseline", "inproc"),
    "offloaded-inproc": ("offloaded", "inproc"),
    "offloaded-shm": ("offloaded", "shm"),
    "procs": ("procs", "shm"),
}
PROCS_NAME = "difftest"
#: a packed run that claims five bytes and brings one
MALFORMED = b"\x0a\x05\x01"
#: what answers every request of the stream that is not answered OK
#: (docs/FAULTS.md §3, the outcome table) — always with an empty message
FAILING = {
    "malformed": StatusCode.INVALID_ARGUMENT,
    "truncated-varint": StatusCode.INVALID_ARGUMENT,
    "bad-utf8": StatusCode.INVALID_ARGUMENT,
    "unknown-method": StatusCode.UNIMPLEMENTED,
    "servicer-raises": StatusCode.INTERNAL,
    "servicer-returns-none": StatusCode.INTERNAL,
    "servicer-returns-the-wrong-type": StatusCode.INTERNAL,
    "response-cannot-be-encoded": StatusCode.INTERNAL,
}


def _misbehaving_bench_service():
    """``bench_service()`` with a servicer that fails on request: the
    string ``Upper`` is asked to raise names how."""
    schema, service, servicer = bench_service()
    Empty, CharArray = schema["bench.Empty"], schema["bench.CharArray"]

    class Misbehaving(type(servicer)):
        def Upper(self, request, context):
            how = request.data
            if how == "servicer-raises":
                raise ValueError("boom")
            if how == "servicer-returns-none":
                return None
            if how == "servicer-returns-the-wrong-type":
                return Empty()
            if how == "response-cannot-be-encoded":
                return CharArray(data="\ud800")  # a lone surrogate
            return super().Upper(request, context)

    return schema, service, Misbehaving()


def _request_stream():
    """(what, frame) — the paper's three shapes, then every failure a
    servicer of this shape and a client of this service can produce, then
    the shapes again; framed exactly once for all four deployments."""
    schema, _service, _servicer = bench_service()
    factory = WorkloadFactory(schema=schema)
    CharArray = schema["bench.CharArray"]
    requests = [
        ("small", "PingSmall", serialize(factory.small())),
        ("ints512", "SumInts", serialize(factory.int_array(512))),
        ("chars8000", "Upper", serialize(factory.char_array(8000))),
        ("malformed", "SumInts", MALFORMED),
        ("truncated-varint", "PingSmall", b"\x08\x80"),
        ("bad-utf8", "Upper", b"\x0a\x01\xff"),
        ("unknown-method", "Nope", serialize(factory.small())),
        *((how, "Upper", serialize(CharArray(data=how)))
          for how in sorted(FAILING) if how.startswith(("servicer", "response"))),
        ("small-after", "PingSmall", serialize(factory.small())),
        ("ints512-after", "SumInts", serialize(factory.int_array(512))),
    ]
    return [
        (what, encode_request(2 * i + 1, f"/bench.Bench/{method}", payload))
        for i, (what, method, payload) in enumerate(requests)
    ]


def _own_segments() -> list[str]:
    return [n for n in os.listdir("/dev/shm")
            if n.startswith("repro-") and f"-{os.getpid()}-" in n]


def _round_trip(deployment, socket, frame: bytes):
    """Send one request frame, return the raw bytes of its one response
    frame and the decoded frame."""
    decoder, raw = FrameDecoder(), bytearray()
    socket.send(frame)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        deployment.drive()
        data = socket.recv(1 << 20)
        if not data:
            continue
        raw += data
        decoder.feed(data)
        frames = list(decoder.frames())
        if frames:
            assert len(frames) == 1
            return bytes(raw), frames[0]
    raise AssertionError("no response within 30 s")


def _run(kind: str, transport: str, stream, own_descriptors) -> dict:
    schema, service, servicer = _misbehaving_bench_service()
    held_before = own_descriptors()
    deployment = build(kind, schema, service, servicer, transport=transport,
                       name=PROCS_NAME)
    try:
        socket = deployment.connect("difftest-client")
        responses = {what: _round_trip(deployment, socket, frame)
                     for what, frame in stream}
        if kind == "procs":
            stats = deployment.supervisor.stats()["dpu"]
            forwarded, fallbacks = stats["requests_forwarded"], stats["fallback_requests"]
        elif kind == "offloaded":
            front = deployment.front
            forwarded = front.requests_forwarded
            fallbacks = front.fallback_requests
        else:
            forwarded = fallbacks = None
    finally:
        deployment.close()
    return {
        "responses": responses,
        "forwarded": forwarded,
        "fallbacks": fallbacks,
        "segments": _own_segments(),
        "children": [c.name for c in multiprocessing.active_children()
                     if c.name.startswith(f"{PROCS_NAME}-")],
        "fds": sorted(own_descriptors() - held_before),
    }


@pytest.fixture(scope="module")
def stream():
    return _request_stream()


@pytest.fixture(scope="module")
def runs(stream, own_descriptors):
    return {label: _run(kind, transport, stream, own_descriptors)
            for label, (kind, transport) in DEPLOYMENTS.items()}


def test_every_deployment_answers_with_the_same_bytes(runs, stream):
    reference = runs["baseline"]["responses"]
    for label, run in runs.items():
        for what, _frame in stream:
            raw, _decoded = run["responses"][what]
            assert raw == reference[what][0], f"{label}: {what} differs from baseline"


def test_malformed_is_invalid_argument_and_the_connection_survives(runs):
    for label, run in runs.items():
        for what, (_raw, frame) in run["responses"].items():
            assert frame.frame_type is FrameType.RESPONSE, (label, what)
            assert frame.status == FAILING.get(what, StatusCode.OK), (label, what)
            # what the failing code said about itself stays with it
            assert what not in FAILING or frame.message == b"", (label, what)
        # the same connection kept serving, non-trivially
        assert len(run["responses"]["ints512-after"][1].message) > 512


def test_offloaded_kinds_forward_everything_and_never_fall_back(runs, stream):
    assert runs["baseline"]["forwarded"] is None
    for label in ("offloaded-inproc", "offloaded-shm", "procs"):
        assert runs[label]["forwarded"] == len(stream) - 1, label  # (the unknown method)
        assert runs[label]["fallbacks"] == 0, label


def test_close_leaves_no_segment_child_or_descriptor(runs):
    for label, run in runs.items():
        assert run["segments"] == [], label
        assert run["children"] == [], label
        assert run["fds"] == [], label


def test_a_build_that_fails_releases_what_it_made(monkeypatch, own_descriptors):
    """All or nothing: an shm ``offloaded`` build that fails after its
    channel exists closes it — both segments, both doorbell sockets."""

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("repro.deploy.dpu_half", boom)
    held_before = own_descriptors()
    with pytest.raises(RuntimeError, match="injected"):
        build("offloaded", *bench_service(), transport="shm")
    assert _own_segments() == []
    assert sorted(own_descriptors() - held_before) == []


def test_one_clients_failures_leave_the_offload_path_in_use():
    """A servicer that raises and a client that sends payloads the DPU's
    decoder rejects fail their own requests only: the healthy calls that
    follow are still parsed on the DPU, never diverted to host-parse."""
    schema, service, servicer = _misbehaving_bench_service()
    CharArray = schema["bench.CharArray"]
    small = serialize(WorkloadFactory(schema=schema).small())
    requests = (
        [("Upper", serialize(CharArray(data="servicer-raises")))] * 8
        + [("SumInts", MALFORMED)] * 2
        + [("PingSmall", small)] * 10
    )
    with build("offloaded", schema, service, servicer) as deployment:
        socket = deployment.connect("failing-client")
        statuses = [
            _round_trip(deployment, socket,
                        encode_request(2 * i + 1, f"/bench.Bench/{method}", payload))[1].status
            for i, (method, payload) in enumerate(requests)
        ]
        host_deserialized = deployment.host.host_deserialized
        fallbacks = deployment.front.fallback_requests
    assert statuses == ([StatusCode.INTERNAL] * 8 + [StatusCode.INVALID_ARGUMENT] * 2
                        + [StatusCode.OK] * 10)
    assert (host_deserialized, fallbacks) == (0, 0)


def test_a_malformed_request_admitted_from_the_backlog_is_answered():
    """Regression: past the DPU → host concurrency window (1 024) a
    request waits in the client endpoint's backlog and is decoded inside
    ``progress()``, where a decoder error has no caller to go to — it
    escaped ``Deployment.drive()`` (on ``procs`` it killed the DPU child)
    and the request was never answered."""
    schema, service, servicer = bench_service()
    small = serialize(WorkloadFactory(schema=schema).small())
    malformed_id, total = 1101, 1102
    with build("offloaded", schema, service, servicer) as deployment:
        socket = deployment.connect("backlog-client")
        for call_id in range(1, 1101):
            socket.send(encode_request(call_id, "/bench.Bench/PingSmall", small))
        deployment.front.progress()  # the host has not run: nothing answered yet
        client = deployment.dpu.channel.client
        assert (client.outstanding, len(client._backlog)) == (1024, 76)
        socket.send(encode_request(malformed_id, "/bench.Bench/PingSmall", b"\x0a\x01\x00"))
        socket.send(encode_request(total, "/bench.Bench/PingSmall", small))
        decoder, statuses = FrameDecoder(), {}
        for _ in range(200):
            deployment.drive()  # must not raise
            decoder.feed(socket.recv(1 << 22))
            for frame in decoder.frames():
                statuses.setdefault(frame.call_id, []).append(frame.status)
    assert sorted(statuses) == list(range(1, total + 1))
    assert all(len(answers) == 1 for answers in statuses.values())
    # ...as it is when it is admitted directly (it used to be ABORTED here:
    # retryable, and carrying the decoder's repr)
    assert statuses.pop(malformed_id) == [StatusCode.INVALID_ARGUMENT]
    assert set(map(tuple, statuses.values())) == {(StatusCode.OK,)}


def test_a_sealed_block_is_the_same_bytes_as_ever():
    """Golden bytes: sixteen Small requests cross the offloaded stack as
    one sealed request block and come back as one response block; both
    blocks, and the sixteen response frames the client reads, are what
    commit 1988374 (before the one-function appender and the coalesced
    send) put on the wire — §IV layout, vptr, sequence, checksum and all."""
    schema, service, servicer = bench_service()
    factory = WorkloadFactory(seed=7, schema=schema)
    with build("offloaded", schema, service, servicer) as deployment:
        blocks = []
        fabric = deployment.rdma.fabric
        transmit = fabric.transmit

        def capture(sender, wr):
            blocks.append(bytes(sender.pd.space.read(wr.local_addr, wr.length)))
            return transmit(sender, wr)

        fabric.transmit = capture
        socket = deployment.connect()
        for i in range(16):
            socket.send(encode_request(
                2 * i + 1, "/bench.Bench/PingSmall", serialize(factory.small())))
        deployment.drive()
        deployment.drive()
        frames = socket.recv(1 << 20)
    assert [(len(b), hashlib.sha256(b).hexdigest()) for b in (*blocks, frames)] == [
        (784, "3be49932d469ecff221d9b892aa94be9a9b7ea208750538172b5ffac931b0fe2"),
        (144, "8fa88299e702f7f2367f175a729a1fdfdb8463cca00e4004129d66305324121b"),
        (208, "996207e865731c2a1609e5da014e2bff9e2d33ccc6af9fa6c7127345794f24fc"),
    ]
