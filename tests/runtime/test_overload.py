"""Unit tests for the overload-control primitives (docs/OVERLOAD.md)."""

from __future__ import annotations

import pytest

from repro.runtime.overload import (
    ADMIT,
    DRAIN_PER_TICK,
    HARD_FACTOR,
    LANE_BULK,
    LANE_LATENCY,
    AdmissionController,
    ManualClock,
    QueueDepthAdmission,
    RetryBudget,
    deadline_expired,
    install_clock,
    installed_clock,
    now_us,
    pack_deadline,
    unpack_deadline,
)


class TestClock:
    def test_manual_clock_installs_and_restores(self):
        clock = ManualClock(1_000)
        previous = installed_clock()
        install_clock(clock)
        try:
            assert now_us() == 1_000
            clock.advance(250)
            assert now_us() == 1_250
        finally:
            install_clock(previous)
        assert installed_clock() is previous

    def test_manual_clock_rejects_backwards(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1)

    def test_real_clock_is_monotonic_microseconds(self):
        a = now_us()
        b = now_us()
        assert b >= a > 0


class TestDeadlineWord:
    def test_pack_unpack_roundtrip(self):
        word = pack_deadline(123_456, LANE_BULK)
        assert unpack_deadline(word) == (123_456, LANE_BULK)
        word = pack_deadline(123_456, LANE_LATENCY)
        assert unpack_deadline(word) == (123_456, LANE_LATENCY)

    def test_zero_word_means_no_deadline(self):
        assert unpack_deadline(0) == (0, LANE_LATENCY)
        assert not deadline_expired(0, now=1 << 60)

    def test_lane_only_word(self):
        # deadline 0 + bulk lane: carries classification, never expires
        word = pack_deadline(0, LANE_BULK)
        assert unpack_deadline(word) == (0, LANE_BULK)
        assert not deadline_expired(word, now=1 << 60)

    def test_expiry_boundary(self):
        word = pack_deadline(500, LANE_LATENCY)
        assert not deadline_expired(word, now=499)
        assert deadline_expired(word, now=500)
        assert deadline_expired(word, now=501)

    def test_validation(self):
        with pytest.raises(ValueError):
            pack_deadline(-1)
        with pytest.raises(ValueError):
            pack_deadline(0, lane=2)


class TestQueueDepthAdmission:
    def test_admits_below_depth(self):
        adm = QueueDepthAdmission(max_depth=4)
        assert adm.decide(LANE_BULK, 3).admit
        assert adm.admitted[LANE_BULK] == 1

    def test_sheds_bulk_at_depth(self):
        adm = QueueDepthAdmission(max_depth=4)
        decision = adm.decide(LANE_BULK, 4)
        assert not decision.admit
        assert decision.retry_after_ticks >= 1
        assert adm.shed[LANE_BULK] == 1

    def test_latency_lane_survives_bulk_shedding(self):
        adm = QueueDepthAdmission(max_depth=4)
        assert adm.decide(LANE_LATENCY, 4 * HARD_FACTOR - 1).admit
        assert not adm.decide(LANE_LATENCY, 4 * HARD_FACTOR).admit

    def test_retry_after_scales_with_excess(self):
        adm = QueueDepthAdmission(max_depth=4)
        small = adm.decide(LANE_BULK, 5).retry_after_ticks
        large = adm.decide(LANE_BULK, 5 + 5 * DRAIN_PER_TICK).retry_after_ticks
        assert large == small + 5

    def test_stats(self):
        adm = QueueDepthAdmission(max_depth=2)
        adm.decide(LANE_BULK, 1)
        adm.decide(LANE_BULK, 9)
        assert adm.stats() == {
            "admitted": {LANE_LATENCY: 0, LANE_BULK: 1},
            "shed": {LANE_LATENCY: 0, LANE_BULK: 1},
        }


class TestAdmissionBase:
    def test_base_controller_admits_and_counts(self):
        adm = AdmissionController()
        assert adm.decide(LANE_LATENCY, 10**6) is ADMIT
        assert adm.admitted[LANE_LATENCY] == 1


class TestRetryBudget:
    def test_spend_until_exhausted(self):
        budget = RetryBudget(capacity=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2
        assert budget.suppressed == 1

    def test_success_refills_capped(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=0.5)
        budget.try_spend()
        budget.try_spend()
        assert not budget.try_spend()
        budget.on_success()
        assert not budget.try_spend()  # 0.5 tokens < cost
        budget.on_success()
        assert budget.try_spend()  # 1.0 tokens
        for _ in range(100):
            budget.on_success()
        assert budget.tokens == pytest.approx(2.0)  # capped at capacity

    def test_amplification_bound(self):
        # With refill r per success, retries cannot exceed r * successes
        # in steady state once the initial bucket drains.
        budget = RetryBudget(capacity=5.0, refill_per_success=0.1)
        retries = 0
        for _ in range(1_000):
            budget.on_success()
            if budget.try_spend():
                retries += 1
        assert retries <= 5 + 1_000 * 0.1 + 1
