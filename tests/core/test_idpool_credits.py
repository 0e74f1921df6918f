"""Tests for the request-ID pool and the credit manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CreditError, CreditManager, IdPoolError, RequestIdPool


class TestRequestIdPool:
    def test_deterministic_allocation(self):
        a, b = RequestIdPool(16), RequestIdPool(16)
        assert a.allocate_many(5) == b.allocate_many(5)

    def test_fifo_reuse(self):
        pool = RequestIdPool(4)
        ids = pool.allocate_many(4)
        assert ids == [0, 1, 2, 3]
        pool.free(2)
        pool.free(0)
        # FIFO: freed IDs come back in free order, after nothing else.
        assert pool.allocate() == 2
        assert pool.allocate() == 0

    def test_exhaustion(self):
        pool = RequestIdPool(2)
        pool.allocate_many(2)
        with pytest.raises(IdPoolError, match="exhausted"):
            pool.allocate()

    def test_allocate_many_atomic(self):
        pool = RequestIdPool(3)
        pool.allocate()
        with pytest.raises(IdPoolError):
            pool.allocate_many(3)
        # Nothing was taken by the failed bulk call.
        assert pool.free_count == 2

    def test_double_free(self):
        pool = RequestIdPool(4)
        rid = pool.allocate()
        pool.free(rid)
        with pytest.raises(IdPoolError):
            pool.free(rid)

    def test_free_never_allocated(self):
        pool = RequestIdPool(4)
        with pytest.raises(IdPoolError):
            pool.free(1)

    def test_capacity_limits(self):
        with pytest.raises(ValueError):
            RequestIdPool(0)
        with pytest.raises(ValueError):
            RequestIdPool((1 << 16) + 1)
        RequestIdPool(1 << 16)  # the paper's 2^16 max

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=50))
    def test_two_pools_stay_synchronized(self, ops):
        """Both sides replay (alloc k, free j) in the same order — the
        §IV-D invariant: they always hand out identical IDs."""
        a, b = RequestIdPool(64), RequestIdPool(64)
        live: list[int] = []
        for alloc_n, free_n in ops:
            alloc_n = min(alloc_n, a.free_count)
            got_a = a.allocate_many(alloc_n)
            got_b = b.allocate_many(alloc_n)
            assert got_a == got_b
            live.extend(got_a)
            for _ in range(min(free_n, len(live))):
                rid = live.pop(0)
                a.free(rid)
                b.free(rid)
            assert a.fingerprint() == b.fingerprint()


class TestCreditManager:
    def test_consume_replenish(self):
        c = CreditManager(3)
        assert c.consume() and c.consume() and c.consume()
        assert not c.consume()
        assert c.stalls == 1
        c.replenish()
        assert c.consume()

    def test_low_watermark(self):
        c = CreditManager(5)
        c.consume()
        c.consume()
        c.replenish(2)
        assert c.low_watermark == 3
        assert c.available == 5

    def test_replenish_overflow_rejected(self):
        c = CreditManager(2)
        with pytest.raises(CreditError):
            c.replenish(1)
        c.consume()
        c.replenish(1)
        with pytest.raises(CreditError):
            c.replenish(2)

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            CreditManager(0)

    @settings(max_examples=80, deadline=None)
    @given(events=st.lists(st.booleans(), max_size=200))
    def test_never_negative_never_above_initial(self, events):
        c = CreditManager(8)
        in_flight = 0
        for send in events:
            if send:
                if c.consume():
                    in_flight += 1
            elif in_flight:
                c.replenish()
                in_flight -= 1
            assert 0 <= c.available <= 8
            # Blocks in flight never exceed the credit limit (§IV-C).
            assert in_flight <= 8
            assert c.available + in_flight == 8
