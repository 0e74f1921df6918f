"""Backend conformance: every FabricTransport obeys the same contract.

Runs the observable transport semantics — per-QP ordering, WRITE_WITH_IMM
immediate delivery, completion-after-write visibility, RNR budgets, flush
budget accounting, injector hook parity — against both registered
backends (``inproc`` and ``shm``) with the same assertions, so a backend
swap stays invisible to the protocol layers above (docs/TRANSPORT.md).
"""

from __future__ import annotations

import pytest

from repro.core import TransportError, create_channel
from repro.memory import AddressSpace, MemoryRegion
from repro.memory.shm import SharedRegion
from repro.rdma import (
    TRANSPORTS,
    Access,
    CompletionQueue,
    FlushBudgetExceeded,
    Opcode,
    ProtectionDomain,
    QpState,
    QueuePair,
    WcStatus,
    WorkRequest,
)

SBUF = 0x10_0000
RBUF = 0x20_0000
SIZE = 0x1000

BACKENDS = sorted(TRANSPORTS)


class RecordingInjector:
    """Minimal injector double: records hook firings, optional verdicts."""

    def __init__(self, op_verdict=None):
        self.transmits = []
        self.ops = []
        self.ticks = 0
        self.op_verdict = op_verdict

    def on_transmit(self, sender, wr, payload):
        self.transmits.append((sender.name, wr.wr_id, bytes(payload or b"")))
        return payload

    def on_op(self, fabric, sender, wr):
        self.ops.append((sender.name, wr.wr_id))
        return self.op_verdict

    def tick(self, fabric):
        self.ticks += 1


class Pair:
    """Two mirrored sides joined through one fabric backend."""

    def __init__(self, backend, auto_flush=True, rnr_retry=7, injector=None):
        self.backend = backend
        self.fabric = TRANSPORTS[backend](auto_flush=auto_flush, injector=injector)
        self.regions = []
        self.sides = []
        for name in ("dpu", "host"):
            sbuf_base = SBUF if name == "dpu" else RBUF
            rbuf_base = RBUF if name == "dpu" else SBUF
            space = AddressSpace(name)
            sbuf = space.map(MemoryRegion(sbuf_base, SIZE, f"{name}.sbuf"))
            if backend == "shm":
                rbuf = SharedRegion(rbuf_base, SIZE, f"{name}.rbuf")
                self.regions.append(rbuf)
                space.map(rbuf)
            else:
                rbuf = space.map(MemoryRegion(rbuf_base, SIZE, f"{name}.rbuf"))
            pd = ProtectionDomain(space, f"{name}.pd")
            pd.register_memory(sbuf, Access.LOCAL_WRITE)
            pd.register_memory(rbuf, Access.LOCAL_WRITE | Access.REMOTE_WRITE)
            cq = CompletionQueue(capacity=256, name=f"{name}.cq")
            qp = QueuePair(pd, cq, cq, rnr_retry=rnr_retry, name=f"{name}.qp")
            self.sides.append((space, cq, qp))
        self.fabric.connect(self.sides[0][2], self.sides[1][2])

    def close(self):
        close = getattr(self.fabric, "close", None)
        if close is not None:
            close()
        for region in self.regions:
            region.cleanup()

    @property
    def dpu(self):
        return self.sides[0]

    @property
    def host(self):
        return self.sides[1]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_pair(backend):
    pairs = []

    def build(**kwargs):
        pair = Pair(backend, **kwargs)
        pairs.append(pair)
        return pair

    yield build
    for pair in pairs:
        pair.close()


def test_registry_is_complete():
    assert set(TRANSPORTS) == {"inproc", "shm"}
    for name, cls in TRANSPORTS.items():
        assert cls.transport == name


def test_write_with_imm_round_trip(make_pair):
    pair = make_pair()
    dspace, dcq, dqp = pair.dpu
    hspace, hcq, hqp = pair.host
    hqp.post_recv(wr_id=1)
    dspace.write(SBUF + 64, b"payload!")
    dqp.post_send(
        WorkRequest(7, Opcode.RDMA_WRITE_WITH_IMM, SBUF + 64, 8, SBUF + 64, imm_data=5)
    )
    pair.fabric.flush()
    wcs = hcq.poll()
    assert len(wcs) == 1
    assert wcs[0].opcode is Opcode.RECV_RDMA_WITH_IMM
    assert wcs[0].imm_data == 5
    assert wcs[0].byte_len == 8
    # Completion-after-write: the bytes are visible at the mirrored
    # virtual address no later than the completion.
    assert hspace.read(SBUF + 64, 8) == b"payload!"
    assert [w.status for w in dcq.poll()] == [WcStatus.SUCCESS]
    assert pair.fabric.total_bytes == 8
    assert pair.fabric.total_operations == 1


def test_per_qp_ordering(make_pair):
    pair = make_pair(auto_flush=False)
    dspace, _, dqp = pair.dpu
    _, hcq, hqp = pair.host
    for i in range(16):
        hqp.post_recv(i)
    for i in range(16):
        dspace.write(SBUF + i, bytes([i]))
        dqp.post_send(
            WorkRequest(i, Opcode.RDMA_WRITE_WITH_IMM, SBUF + i, 1, SBUF + i, imm_data=i)
        )
    pair.fabric.flush()
    imms = [wc.imm_data for wc in hcq.poll(100)
            if wc.opcode is Opcode.RECV_RDMA_WITH_IMM]
    assert imms == list(range(16))


def test_send_carries_inline_payload(make_pair):
    pair = make_pair()
    dspace, _, dqp = pair.dpu
    _, hcq, hqp = pair.host
    hqp.post_recv(11)
    dspace.write(SBUF, b"bootstrap-adt")
    dqp.post_send(WorkRequest(3, Opcode.SEND, SBUF, 13))
    pair.fabric.flush()
    wc = hcq.poll()[0]
    assert wc.opcode is Opcode.RECV
    assert wc.payload == b"bootstrap-adt"
    assert wc.wr_id == 11


def test_rnr_retry_then_success(make_pair):
    pair = make_pair(auto_flush=False)
    dspace, dcq, dqp = pair.dpu
    _, hcq, hqp = pair.host
    dspace.write(SBUF, b"a")
    dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=9))
    for _ in range(64):  # NAK + responder-side retries, no WQE yet
        pair.fabric.step()
        if pair.fabric.rnr_retransmissions:
            break
    assert pair.fabric.rnr_retransmissions >= 1
    hqp.post_recv(1)
    pair.fabric.flush()
    assert hcq.poll()[0].imm_data == 9
    assert dcq.poll()[0].status is WcStatus.SUCCESS
    assert dqp.state is QpState.RTS


def test_rnr_exhaustion_breaks_requester_qp(make_pair):
    pair = make_pair(rnr_retry=2)
    dspace, dcq, dqp = pair.dpu
    dspace.write(SBUF, b"a")
    dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
    pair.fabric.flush()
    statuses = {wc.status for wc in dcq.poll()}
    assert WcStatus.RNR_RETRY_EXCEEDED in statuses
    assert dqp.state is QpState.ERROR
    assert pair.fabric.rnr_retransmissions == 3  # initial attempt + 2 retries


def test_write_outside_advertised_memory_fails(make_pair):
    """The write fails as RC says it does: a REMOTE_ACCESS_ERROR send
    completion and the requester QP in ERROR — not an exception out of
    ``post_send``, and not an operation lost off the wire."""
    pair = make_pair()
    dspace, dcq, dqp = pair.dpu
    _, hcq, hqp = pair.host
    hqp.post_recv(1)
    dspace.write(SBUF, b"x")
    dqp.post_send(
        WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, 0x999000, imm_data=0)
    )
    pair.fabric.flush()
    wcs = dcq.poll()
    assert [(wc.wr_id, wc.status) for wc in wcs] == [(1, WcStatus.REMOTE_ACCESS_ERROR)]
    assert dqp.state is QpState.ERROR
    assert hcq.poll() == [] and hqp.recv_outstanding() == 1
    assert pair.fabric.in_flight == 0 and pair.fabric.total_operations == 0


def test_a_remote_access_error_reaches_the_endpoint_as_a_transport_error(backend):
    """The endpoint's recovery entry point: after a write no MR of the
    peer covers, the next pass raises the typed TransportError."""
    ch = create_channel(transport=backend)
    try:
        client = ch.client
        client.qp.post_send(WorkRequest(
            99, Opcode.RDMA_WRITE_WITH_IMM, client.sbuf.base, 16, 0x999000, imm_data=0))
        ch.fabric.flush()
        assert client.qp.state is QpState.ERROR
        with pytest.raises(TransportError):
            client.progress()
    finally:
        ch.close()


def test_flush_budget_exhaustion_raises_and_counts(make_pair):
    pair = make_pair(auto_flush=False)
    dspace, _, dqp = pair.dpu
    dspace.write(SBUF, b"a")
    # No receive WQE posted: the op can never resolve, so a bounded flush
    # must run out of budget with work still in flight.
    dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
    assert pair.fabric.in_flight == 1
    with pytest.raises(FlushBudgetExceeded) as exc:
        pair.fabric.flush(max_steps=3)
    assert exc.value.in_flight >= 1
    assert pair.fabric.flush_budget_exhausted == 1


def test_flush_error_on_qp_reset(make_pair):
    pair = make_pair(auto_flush=False)
    dspace, dcq, dqp = pair.dpu
    dspace.write(SBUF, b"a")
    dqp.post_send(WorkRequest(5, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
    dqp.to_error()
    wcs = dcq.poll()
    assert any(wc.status is WcStatus.WR_FLUSH_ERROR for wc in wcs)
    assert pair.fabric.flushed_operations >= 1


def test_discard_in_flight_drops_everything(make_pair):
    pair = make_pair(auto_flush=False)
    dspace, dcq, dqp = pair.dpu
    dspace.write(SBUF, b"ab")
    dqp.post_send(WorkRequest(1, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 2, SBUF, imm_data=0))
    assert pair.fabric.in_flight >= 1
    discarded = pair.fabric.discard_in_flight()
    assert discarded >= 1
    assert pair.fabric.in_flight == 0
    assert dcq.poll() == []  # dropped without completions


def test_injector_transmit_hook_sees_payload(make_pair, backend):
    injector = RecordingInjector()
    pair = make_pair(auto_flush=False, injector=injector)
    dspace, _, dqp = pair.dpu
    _, hcq, hqp = pair.host
    hqp.post_recv(1)
    dspace.write(SBUF, b"hook")
    dqp.post_send(WorkRequest(9, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 4, SBUF, imm_data=1))
    pair.fabric.flush()
    assert injector.transmits == [("dpu.qp", 9, b"hook")]
    assert injector.ops == [("dpu.qp", 9)]
    assert injector.ticks >= 1
    assert hcq.poll()[0].imm_data == 1


def test_injector_drop_op_loses_completions(make_pair):
    injector = RecordingInjector(op_verdict="drop_op")
    pair = make_pair(auto_flush=False, injector=injector)
    dspace, dcq, dqp = pair.dpu
    _, hcq, hqp = pair.host
    hqp.post_recv(1)
    dspace.write(SBUF, b"x")
    dqp.post_send(WorkRequest(2, Opcode.RDMA_WRITE_WITH_IMM, SBUF, 1, SBUF, imm_data=0))
    for _ in range(64):
        if not pair.fabric.step():
            break
    # The op vanished: no responder completion, and the requester's send
    # dangles (drop_op models a lost completion, not a flushed one).
    assert hcq.poll() == []
    assert dcq.poll() == []
    assert injector.ops == [("dpu.qp", 2)]
