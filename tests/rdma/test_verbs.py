"""Tests for the simulated verbs layer: PDs, MRs, CQs, channels."""

from __future__ import annotations

import pytest

from repro.memory import AddressSpace, MemoryRegion
from repro.rdma import (
    Access,
    CompletionChannel,
    CompletionQueue,
    Opcode,
    ProtectionDomain,
    ProtectionError,
    QueueOverflowError,
    WorkCompletion,
)


@pytest.fixture
def pd():
    space = AddressSpace("side")
    space.map(MemoryRegion(0x1000, 0x1000, "buf"))
    return ProtectionDomain(space, "pd")


class TestProtectionDomain:
    def test_register_and_find(self, pd):
        region = pd.space.region_of(0x1000)
        mr = pd.register_memory(region, Access.REMOTE_WRITE | Access.LOCAL_WRITE)
        assert pd.find_remote_writable(0x1800, 16) is mr

    def test_remote_write_requires_access(self, pd):
        region = pd.space.region_of(0x1000)
        pd.register_memory(region, Access.LOCAL_WRITE)
        with pytest.raises(ProtectionError, match="not REMOTE_WRITE"):
            pd.find_remote_writable(0x1000, 8)

    def test_unregistered_range_rejected(self, pd):
        with pytest.raises(ProtectionError, match="no MR covers"):
            pd.find_remote_writable(0x9000, 8)

    def test_check_local(self, pd):
        region = pd.space.region_of(0x1000)
        pd.register_memory(region)
        pd.check_local(0x1000, 16)
        with pytest.raises(ProtectionError):
            pd.check_local(0x2000, 1)

    def test_deregister(self, pd):
        region = pd.space.region_of(0x1000)
        mr = pd.register_memory(region, Access.REMOTE_WRITE)
        pd.deregister(mr)
        with pytest.raises(ProtectionError):
            pd.find_remote_writable(0x1000, 8)

    def test_distinct_keys(self, pd):
        region = pd.space.region_of(0x1000)
        a = pd.register_memory(region)
        keys = {a.lkey, a.rkey}
        assert len(keys) == 2


class TestCompletionQueue:
    def test_fifo(self):
        cq = CompletionQueue(capacity=4)
        for i in range(3):
            cq.push(WorkCompletion(i, Opcode.SEND))
        assert [wc.wr_id for wc in cq.poll()] == [0, 1, 2]
        assert cq.poll() == []

    def test_poll_bounded(self):
        cq = CompletionQueue(capacity=10)
        for i in range(5):
            cq.push(WorkCompletion(i, Opcode.SEND))
        assert len(cq.poll(max_entries=2)) == 2
        assert len(cq) == 3

    def test_overflow_raises(self):
        cq = CompletionQueue(capacity=2)
        cq.push(WorkCompletion(0, Opcode.SEND))
        cq.push(WorkCompletion(1, Opcode.SEND))
        with pytest.raises(QueueOverflowError):
            cq.push(WorkCompletion(2, Opcode.SEND))

    def test_channel_notification(self):
        chan = CompletionChannel()
        cq = CompletionQueue(capacity=4, channel=chan)
        assert not chan.has_events()
        cq.push(WorkCompletion(0, Opcode.SEND))
        assert chan.has_events()
        assert chan.get_events() == [cq]
        assert not chan.has_events()
        # One event per CQ per arm (ibv semantics): however many pushes
        # land before get_events, the CQ is listed once — the channel of
        # a long-lived connection holds one entry, not two per block.
        for i in range(10_000):
            cq.push(WorkCompletion(i, Opcode.SEND))
            cq.poll()
        assert chan.get_events() == [cq]
        assert chan.get_events() == []
