"""Tests for QP/fabric: ordering, WRITE_WITH_IMM semantics, RNR, errors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, MemoryRegion
from repro.rdma import (
    Access,
    CompletionQueue,
    Fabric,
    Opcode,
    ProtectionDomain,
    ProtectionError,
    QpState,
    QueuePair,
    VerbsError,
    WcStatus,
    WorkRequest,
)

SBUF = 0x10_0000
RBUF = 0x20_0000
SIZE = 0x1000


def make_pair(auto_flush: bool = True, rnr_retry: int = 7):
    """Two sides with mirrored buffers: each side's RBUF mirrors the
    peer's SBUF at the same virtual address."""
    fabric = Fabric(auto_flush=auto_flush)
    sides = []
    for name in ("dpu", "host"):
        space = AddressSpace(name)
        sbuf = space.map(MemoryRegion(SBUF if name == "dpu" else RBUF, SIZE, f"{name}.sbuf"))
        rbuf = space.map(MemoryRegion(RBUF if name == "dpu" else SBUF, SIZE, f"{name}.rbuf"))
        pd = ProtectionDomain(space, f"{name}.pd")
        pd.register_memory(sbuf, Access.LOCAL_WRITE)
        pd.register_memory(rbuf, Access.LOCAL_WRITE | Access.REMOTE_WRITE)
        cq = CompletionQueue(capacity=256, name=f"{name}.cq")
        qp = QueuePair(pd, cq, cq, rnr_retry=rnr_retry, name=f"{name}.qp")
        sides.append((space, pd, cq, qp))
    fabric.connect(sides[0][3], sides[1][3])
    return fabric, sides[0], sides[1]


class TestWriteWithImm:
    def test_write_lands_at_same_virtual_address(self):
        fabric, (dspace, _, dcq, dqp), (hspace, _, hcq, hqp) = make_pair()
        hqp.post_recv(wr_id=1)
        dspace.write(SBUF + 64, b"payload!")
        dqp.post_send(
            WorkRequest(7, Opcode.RDMA_WRITE_WITH_IMM, SBUF + 64, 8, SBUF + 64, imm_data=5)
        )
        # Host sees the bytes at the *same* virtual address (mirroring).
        assert hspace.read(SBUF + 64, 8) == b"payload!"
        # Responder got the immediate.
        wcs = hcq.poll()
        assert len(wcs) == 1
        assert wcs[0].imm_data == 5
        assert wcs[0].byte_len == 8
        # Requester got a send completion.
        assert [w.status for w in dcq.poll()] == [WcStatus.SUCCESS]

    def test_remote_cpu_not_involved(self):
        """The write consumes a pre-posted WQE; no host-side code ran."""
        fabric, (dspace, _, _, dqp), (hspace, _, hcq, hqp) = make_pair()
        hqp.post_recv(1)
        before = hqp.recv_outstanding()
        dspace.write(SBUF, b"x")
        dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
        assert hqp.recv_outstanding() == before - 1

    def test_in_order_delivery(self):
        fabric, (dspace, _, _, dqp), (_, _, hcq, hqp) = make_pair(auto_flush=False)
        for i in range(8):
            hqp.post_recv(i)
        for i in range(8):
            dspace.write(SBUF + i, bytes([i]))
            dqp.post_send(
                WorkRequest(i, Opcode.RDMA_WRITE_WITH_IMM, SBUF + i, 1, SBUF + i, imm_data=i)
            )
        fabric.flush()
        imms = [wc.imm_data for wc in hcq.poll(100) if wc.opcode is Opcode.RECV_RDMA_WITH_IMM]
        assert imms == list(range(8))

    def test_write_outside_registered_memory_fails(self):
        """RC semantics: the send completes REMOTE_ACCESS_ERROR and the
        requester QP breaks; nothing raises out of post_send, and the
        responder's receive WQE is not consumed."""
        fabric, (dspace, _, dcq, dqp), (_, _, hcq, hqp) = make_pair()
        hqp.post_recv(1)
        dspace.write(SBUF, b"x")
        dqp.post_send(
            WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, 0x999000, imm_data=0)
        )
        assert [w.status for w in dcq.poll()] == [WcStatus.REMOTE_ACCESS_ERROR]
        assert dqp.state is QpState.ERROR
        assert hcq.poll() == [] and hqp.recv_outstanding() == 1
        assert fabric.in_flight == 0 and fabric.total_operations == 0

    def test_local_protection_error(self):
        fabric, (_, _, dcq, dqp), _ = make_pair()
        with pytest.raises(ProtectionError):
            dqp.post_send(
                WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, 0x999000, 1, SBUF, imm_data=0)
            )
        wcs = dcq.poll()
        assert wcs[0].status is WcStatus.LOCAL_PROTECTION_ERROR
        assert dqp.state is QpState.ERROR


class TestRnr:
    def test_rnr_retry_then_success(self):
        fabric, (dspace, _, dcq, dqp), (_, _, hcq, hqp) = make_pair(auto_flush=False)
        dspace.write(SBUF, b"a")
        dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=9))
        fabric.step()  # no recv posted -> RNR, retried
        assert fabric.rnr_retransmissions == 1
        hqp.post_recv(1)
        fabric.flush()
        assert hcq.poll()[0].imm_data == 9
        assert dcq.poll()[0].status is WcStatus.SUCCESS

    def test_rnr_retry_exhaustion_breaks_qp(self):
        fabric, (dspace, _, dcq, dqp), _ = make_pair(rnr_retry=2)
        dspace.write(SBUF, b"a")
        dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
        wcs = dcq.poll()
        assert wcs[0].status is WcStatus.RNR_RETRY_EXCEEDED
        assert dqp.state is QpState.ERROR
        assert fabric.rnr_retransmissions == 3  # initial + 2 retries


class TestSendRecv:
    def test_send_carries_payload(self):
        fabric, (dspace, _, _, dqp), (_, _, hcq, hqp) = make_pair()
        hqp.post_recv(11)
        dspace.write(SBUF, b"bootstrap-adt")
        dqp.post_send(WorkRequest(3, Opcode.SEND, SBUF, 13))
        wc = hcq.poll()[0]
        assert wc.opcode is Opcode.RECV
        assert wc.payload == b"bootstrap-adt"
        assert wc.wr_id == 11


class TestStateMachine:
    def test_post_before_connect_rejected(self):
        space = AddressSpace()
        r = space.map(MemoryRegion(0x1000, 64))
        pd = ProtectionDomain(space)
        pd.register_memory(r)
        cq = CompletionQueue(16)
        qp = QueuePair(pd, cq, cq)
        with pytest.raises(VerbsError):
            qp.post_send(WorkRequest(1, Opcode.SEND, 0x1000, 1))

    def test_error_state_flushes_receives(self):
        fabric, _, (_, _, hcq, hqp) = make_pair()
        hqp.post_recv(1)
        hqp.post_recv(2)
        hqp.to_error()
        statuses = [wc.status for wc in hcq.poll()]
        assert statuses == [WcStatus.WR_FLUSH_ERROR] * 2

    def test_stats_accounting(self):
        fabric, (dspace, _, _, dqp), (_, _, _, hqp) = make_pair()
        hqp.post_recv(1)
        dspace.write(SBUF, b"abcd")
        dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 4, SBUF, imm_data=0))
        assert dqp.bytes_sent == 4
        assert hqp.bytes_received == 4
        assert fabric.total_bytes == 4
        assert fabric.total_operations == 1


class TestOrderingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 32), min_size=1, max_size=30),
    )
    def test_exactly_once_in_order_any_batching(self, lengths):
        fabric, (dspace, _, _, dqp), (_, _, hcq, hqp) = make_pair(auto_flush=False)
        for i in range(len(lengths)):
            hqp.post_recv(i)
        offset = 0
        for i, n in enumerate(lengths):
            data = bytes([i % 251]) * n
            dspace.write(SBUF + offset, data)
            dqp.post_send(
                WorkRequest(
                    i, Opcode.RDMA_WRITE_WITH_IMM, SBUF + offset, n, SBUF + offset, imm_data=i
                )
            )
            offset += n
        fabric.flush()
        wcs = hcq.poll(200)
        assert [wc.imm_data for wc in wcs] == list(range(len(lengths)))
        assert [wc.byte_len for wc in wcs] == lengths
