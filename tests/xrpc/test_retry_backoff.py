"""Retry hygiene (docs/OVERLOAD.md): jittered exponential backoff, the
per-channel retry budget, and honoring server retry-after hints.

The headline regression here is the retry-storm one: before jitter,
every channel that failed together retried after the *same* deterministic
backoff, re-overloading the server in synchronized bursts the moment it
recovered."""

from __future__ import annotations

import random

import pytest

from repro.proto import compile_schema
from repro.runtime.overload import RetryBudget
from repro.xrpc import (
    Network,
    RpcResourceExhaustedError,
    StatusCode,
    XrpcChannel,
    XrpcServer,
    encode_overload_detail,
    parse_overload_detail,
)
from repro.xrpc.channel import RetryPolicy, RpcTimeoutError, RpcTransportError

SRC = """
syntax = "proto3";
package rb;
message Ping { int64 x = 1; }
message Pong { int64 x = 1; }
service Svc { rpc Do (Ping) returns (Pong); }
"""


@pytest.fixture(scope="module")
def schema():
    return compile_schema(SRC)


def make_deployment(schema, name="retry-client"):
    net = Network()
    server = XrpcServer(net, "host:1", schema.factory)
    Pong = schema["rb.Pong"]

    class Servicer:
        def Do(self, request, context):
            return Pong(x=request.x)

    server.add_service(schema.service("rb.Svc"), Servicer())
    channel = XrpcChannel(net, "host:1", name=name)
    channel.drive = server.progress
    return channel, server


class TestBackoffSchedule:
    def test_unjittered_is_capped_exponential(self):
        policy = RetryPolicy(base_iters=64, cap_iters=4096, jitter=False)
        waits = [policy.backoff(n) for n in range(8)]
        assert waits == [64, 128, 256, 512, 1024, 2048, 4096, 4096]

    def test_no_rng_falls_back_to_deterministic(self):
        policy = RetryPolicy(base_iters=64)
        assert policy.backoff(2) == 256

    def test_jitter_draws_from_full_range(self):
        policy = RetryPolicy(base_iters=64)
        rng = random.Random(1)
        waits = {policy.backoff(0, rng) for _ in range(500)}
        assert min(waits) >= 1
        assert max(waits) <= 64
        assert len(waits) > 30  # actually spread, not a point mass

    def test_jitter_respects_cap(self):
        policy = RetryPolicy(base_iters=64, cap_iters=128)
        rng = random.Random(2)
        assert all(policy.backoff(10, rng) <= 128 for _ in range(100))


class TestRetryStormRegression:
    def test_synchronized_channels_desynchronize(self, schema):
        """N channels that failed at the same instant must not agree on
        their retry times (the pre-jitter thundering-herd regression)."""
        policy = RetryPolicy(base_iters=256)
        schedules = []
        for i in range(8):
            channel, _ = make_deployment(schema, name=f"client-{i}")
            schedules.append(
                tuple(policy.backoff(a, channel._retry_rng) for a in range(3))
            )
        assert len(set(schedules)) == len(schedules)
        first_waits = {s[0] for s in schedules}
        assert len(first_waits) > 1

    def test_same_channel_name_is_reproducible(self, schema):
        policy = RetryPolicy(base_iters=256)
        runs = []
        for _ in range(2):
            channel, _ = make_deployment(schema, name="stable-name")
            runs.append(
                tuple(policy.backoff(a, channel._retry_rng) for a in range(4))
            )
        assert runs[0] == runs[1]


class TestRetryBudgetIntegration:
    def test_budget_suppresses_retry_storms(self, schema):
        """With the budget drained, a retryable failure propagates
        immediately instead of amplifying load."""
        channel, server = make_deployment(schema)
        Ping, Pong = schema["rb.Ping"], schema["rb.Pong"]
        # Exhaust the budget.
        channel.retry_budget = RetryBudget(capacity=1.0)
        assert channel.retry_budget.try_spend()
        # Shed everything: admission controller that never admits.
        from repro.runtime.overload import AdmissionController, AdmissionDecision

        class ShedAll(AdmissionController):
            def admit(self, lane, depth):
                return AdmissionDecision(False, 2, "always")

        server.admission = ShedAll()
        channel.retry_policy = RetryPolicy(max_retries=3, base_iters=2)
        with pytest.raises(RpcResourceExhaustedError):
            channel.call_sync("/rb.Svc/Do", Ping(x=1), Pong, max_iters=500)
        assert channel.retries == 0  # suppressed: no budget
        assert channel.retry_budget.suppressed >= 1

    def test_budget_spends_and_refills(self, schema):
        channel, server = make_deployment(schema)
        Ping, Pong = schema["rb.Ping"], schema["rb.Pong"]
        from repro.runtime.overload import AdmissionController, AdmissionDecision

        class ShedFirstN(AdmissionController):
            def __init__(self, n):
                super().__init__()
                self.n = n

            def admit(self, lane, depth):
                if self.n > 0:
                    self.n -= 1
                    return AdmissionDecision(False, 1, "warming")
                return AdmissionDecision(True)

        server.admission = ShedFirstN(2)
        channel.retry_policy = RetryPolicy(max_retries=3, base_iters=2)
        tokens_before = channel.retry_budget.tokens
        pong = channel.call_sync("/rb.Svc/Do", Ping(x=5), Pong, max_iters=500)
        assert pong.x == 5
        assert channel.retries == 2
        assert channel.sheds == 2
        # 2 tokens spent, one refill on the final success
        assert channel.retry_budget.tokens == pytest.approx(
            tokens_before - 2 + channel.retry_budget.refill_per_success
        )

    def test_sheds_retry_even_when_not_idempotent(self, schema):
        """A shed request never executed, so retrying is safe for any
        method — unlike timeouts/transport errors."""
        channel, server = make_deployment(schema)
        Ping, Pong = schema["rb.Ping"], schema["rb.Pong"]
        from repro.runtime.overload import AdmissionController, AdmissionDecision

        class ShedOnce(AdmissionController):
            def __init__(self):
                super().__init__()
                self.done = False

            def admit(self, lane, depth):
                if not self.done:
                    self.done = True
                    return AdmissionDecision(False, 1, "once")
                return AdmissionDecision(True)

        server.admission = ShedOnce()
        channel.retry_policy = RetryPolicy(max_retries=2, base_iters=2)
        pong = channel.call_sync(
            "/rb.Svc/Do", Ping(x=9), Pong, max_iters=500, idempotent=False
        )
        assert pong.x == 9
        assert channel.retries == 1


class TestRetryAfterHint:
    def test_backoff_honors_server_hint(self, schema):
        """The retry wait is max(jittered backoff, server hint): a hint
        larger than the backoff ceiling dominates the wait."""
        channel, server = make_deployment(schema)
        Ping, Pong = schema["rb.Ping"], schema["rb.Pong"]
        from repro.runtime.overload import AdmissionController, AdmissionDecision

        hint = 97

        class ShedOnceWithHint(AdmissionController):
            def __init__(self):
                super().__init__()
                self.done = False

            def admit(self, lane, depth):
                if not self.done:
                    self.done = True
                    return AdmissionDecision(False, hint, "hinted")
                return AdmissionDecision(True)

        server.admission = ShedOnceWithHint()
        # Backoff ceiling of 4 << hint of 97: the hint must win.
        channel.retry_policy = RetryPolicy(max_retries=1, base_iters=4, cap_iters=4)
        drives = [0]
        inner_drive = channel.drive

        def counting_drive():
            drives[0] += 1
            inner_drive()

        channel.drive = counting_drive
        pong = channel.call_sync("/rb.Svc/Do", Ping(x=2), Pong, max_iters=500)
        assert pong.x == 2
        # total drives = iterations for both attempts + the backoff wait;
        # the wait alone must be >= the hint
        assert drives[0] >= hint

    def test_detail_roundtrip(self):
        detail = encode_overload_detail("dpu_admission", 42)
        assert parse_overload_detail(detail) == ("dpu_admission", 42)
        assert parse_overload_detail(encode_overload_detail("dispatch")) == (
            "dispatch", 0,
        )
        assert parse_overload_detail(b"garbage") == ("", 0)
        assert parse_overload_detail(b"") == ("", 0)

    def test_shed_error_carries_stage_and_hint(self, schema):
        channel, server = make_deployment(schema)
        Ping, Pong = schema["rb.Ping"], schema["rb.Pong"]
        from repro.runtime.overload import AdmissionController, AdmissionDecision

        class ShedAll(AdmissionController):
            def admit(self, lane, depth):
                return AdmissionDecision(False, 7, "test")

        server.admission = ShedAll()
        channel.retry_policy = RetryPolicy(max_retries=0)
        with pytest.raises(RpcResourceExhaustedError) as excinfo:
            channel.call_sync("/rb.Svc/Do", Ping(x=1), Pong, max_iters=500)
        assert excinfo.value.stage == "dispatch"
        assert excinfo.value.retry_after_ticks == 7
        assert excinfo.value.status == StatusCode.RESOURCE_EXHAUSTED


class TestRetryabilityRules:
    def test_client_timeout_needs_idempotent(self):
        exc = RpcTimeoutError("/m", 100)  # stage="client"
        assert XrpcChannel._retryable(exc, idempotent=True)
        assert not XrpcChannel._retryable(exc, idempotent=False)

    def test_datapath_expiry_never_retries(self):
        exc = RpcTimeoutError("/m", 0, stage="dpu_ingress")
        assert not XrpcChannel._retryable(exc, idempotent=True)

    def test_transport_error_needs_idempotent(self):
        exc = RpcTransportError("conn reset")
        assert XrpcChannel._retryable(exc, idempotent=True)
        assert not XrpcChannel._retryable(exc, idempotent=False)

    def test_shed_always_retryable(self):
        exc = RpcResourceExhaustedError("/m", "dispatch", 3)
        assert XrpcChannel._retryable(exc, idempotent=False)
