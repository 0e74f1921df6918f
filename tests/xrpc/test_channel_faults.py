"""xRPC client failure semantics: timeouts with cleanup, typed transport
errors, idempotent-only retries with capped backoff, and cancellation
(docs/FAULTS.md)."""

from __future__ import annotations

import pytest

from repro.proto import compile_schema
from repro.xrpc import (
    FrameDecoder,
    Network,
    RetryPolicy,
    RpcError,
    RpcTimeoutError,
    RpcTransportError,
    StatusCode,
    XrpcChannel,
    XrpcServer,
    encode_response,
)

SRC = """
syntax = "proto3";
package t;
message Ping { int64 x = 1; }
service Svc { rpc Echo (Ping) returns (Ping); }
"""


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


class ScriptedServer:
    """A hand-rolled responder: answers each request frame with the next
    scripted status (payload echoes the request when the status is OK)."""

    def __init__(self, net: Network, address: str, statuses) -> None:
        self.listener = net.listen(address)
        self.statuses = list(statuses)
        self.sockets = []
        self.decoders = []
        self.answered = 0
        self.paused = False

    def progress(self) -> None:
        sock = self.listener.accept()
        if sock is not None:
            self.sockets.append(sock)
            self.decoders.append(FrameDecoder())
        if self.paused:
            return
        for sock, decoder in zip(self.sockets, self.decoders):
            data = sock.recv(1 << 20)
            if data:
                decoder.feed(data)
            for frame in decoder.frames():
                status = (
                    self.statuses.pop(0) if self.statuses else StatusCode.OK
                )
                body = bytes(frame.message) if status == StatusCode.OK else b""
                sock.send(encode_response(frame.call_id, status, body))
                self.answered += 1


def scripted(schema, statuses, address="scripted:1"):
    net = Network()
    server = ScriptedServer(net, address, statuses)
    channel = XrpcChannel(net, address)
    channel.drive = server.progress
    return channel, server


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_retries=5, base_iters=64, cap_iters=200)
        assert [policy.backoff(n) for n in range(5)] == [64, 128, 200, 200, 200]


class TestTimeout:
    def test_timeout_is_typed_and_cleans_up(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(schema, [])
        server.paused = True  # accepts but never answers
        with pytest.raises(RpcTimeoutError) as err:
            channel.call_sync("/t.Svc/Echo", Ping(x=1), Ping, max_iters=40)
        assert "40 iterations" in str(err.value) or "Echo" in str(err.value)
        assert channel.outstanding == 0  # the pending call was cancelled
        assert channel.timeouts == 1

    def test_non_idempotent_never_retries(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(schema, [])
        server.paused = True
        with pytest.raises(RpcTimeoutError):
            channel.call_sync("/t.Svc/Echo", Ping(x=1), Ping, max_iters=30)
        assert channel.retries == 0

    def test_late_response_after_timeout_is_dropped(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(schema, [])
        server.paused = True
        with pytest.raises(RpcTimeoutError):
            channel.call_sync("/t.Svc/Echo", Ping(x=5), Ping, max_iters=20)
        server.paused = False
        server.progress()  # the stale answer goes out now
        assert channel.poll() == 0  # ...and is dropped, not delivered
        assert server.answered == 1


class TestTransportErrors:
    def test_unavailable_maps_to_transport_error(self, schema):
        Ping = schema["t.Ping"]
        channel, _ = scripted(schema, [StatusCode.UNAVAILABLE])
        with pytest.raises(RpcTransportError):
            channel.call_sync("/t.Svc/Echo", Ping(x=1), Ping, max_iters=50)
        assert channel.transport_errors == 1

    def test_aborted_maps_to_transport_error(self, schema):
        Ping = schema["t.Ping"]
        channel, _ = scripted(schema, [StatusCode.ABORTED])
        with pytest.raises(RpcTransportError):
            channel.call_sync("/t.Svc/Echo", Ping(x=1), Ping, max_iters=50)

    def test_application_status_is_rpc_error_never_retried(self, schema):
        Ping = schema["t.Ping"]
        channel, _ = scripted(schema, [StatusCode.INTERNAL])
        with pytest.raises(RpcError) as err:
            channel.call_sync(
                "/t.Svc/Echo", Ping(x=1), Ping, max_iters=50, idempotent=True
            )
        assert not isinstance(err.value, RpcTransportError)
        assert err.value.status == StatusCode.INTERNAL
        assert channel.retries == 0


class TestIdempotentRetry:
    def test_transport_error_retried_to_success(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(
            schema, [StatusCode.UNAVAILABLE, StatusCode.UNAVAILABLE, StatusCode.OK]
        )
        channel.retry_policy = RetryPolicy(max_retries=3, base_iters=2, cap_iters=8)
        reply = channel.call_sync(
            "/t.Svc/Echo", Ping(x=7), Ping, max_iters=50, idempotent=True
        )
        assert reply.x == 7
        assert channel.retries == 2
        assert channel.transport_errors == 2

    def test_retries_exhausted_raises_last_error(self, schema):
        Ping = schema["t.Ping"]
        channel, _ = scripted(schema, [StatusCode.UNAVAILABLE] * 10)
        channel.retry_policy = RetryPolicy(max_retries=2, base_iters=1, cap_iters=2)
        with pytest.raises(RpcTransportError):
            channel.call_sync(
                "/t.Svc/Echo", Ping(x=1), Ping, max_iters=50, idempotent=True
            )
        assert channel.retries == 2

    def test_timeout_retried_when_idempotent(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(schema, [])
        channel.retry_policy = RetryPolicy(max_retries=1, base_iters=1, cap_iters=2)
        calls = {"n": 0}
        real_poll = server.progress

        def flaky_drive():
            calls["n"] += 1
            # Silent for the whole first attempt; answers afterwards.
            if calls["n"] > 20:
                real_poll()

        channel.drive = flaky_drive
        reply = channel.call_sync(
            "/t.Svc/Echo", Ping(x=9), Ping, max_iters=20, idempotent=True
        )
        assert reply.x == 9
        assert channel.timeouts == 1
        assert channel.retries == 1


class TestCancel:
    def test_cancel_prevents_callback(self, schema):
        Ping = schema["t.Ping"]
        channel, server = scripted(schema, [StatusCode.OK])
        fired = []
        call_id = channel.call(
            "/t.Svc/Echo", Ping(x=3), Ping, lambda rsp, st: fired.append(st)
        )
        assert channel.cancel(call_id) is True
        assert channel.cancel(call_id) is False  # already forgotten
        server.progress()
        assert channel.poll() == 0
        assert fired == []
        assert channel.outstanding == 0

    def test_call_sync_needs_drive(self, schema):
        Ping = schema["t.Ping"]
        net = Network()
        net.listen("nodrive:1")
        channel = XrpcChannel(net, "nodrive:1")
        with pytest.raises(RuntimeError, match="drive"):
            channel.call_sync("/t.Svc/Echo", Ping(x=1), Ping)


class TestAgainstRealServer:
    def test_real_server_recovers_after_timeouts(self, schema):
        """End-to-end: a real XrpcServer behind a gate that opens after
        the first attempt — the idempotent retry completes the call."""
        Ping = schema["t.Ping"]

        class Servicer:
            def Echo(self, request, context):
                return Ping(x=request.x)

        net = Network()
        server = XrpcServer(net, "real:1", schema.factory)
        server.add_service(schema.service("t.Svc"), Servicer())
        channel = XrpcChannel(net, "real:1")
        channel.retry_policy = RetryPolicy(max_retries=2, base_iters=2, cap_iters=4)
        state = {"drives": 0}

        def drive():
            state["drives"] += 1
            if state["drives"] > 15:
                server.progress()

        channel.drive = drive
        reply = channel.call_sync(
            "/t.Svc/Echo", Ping(x=11), Ping, max_iters=15, idempotent=True
        )
        assert reply.x == 11
        assert channel.timeouts >= 1
