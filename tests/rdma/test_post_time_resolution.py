"""Resolving an operation at post time is the step, not a second path.

With ``auto_flush`` the in-process fabric resolves an operation posted
onto an idle wire inside ``transmit`` — the body ``step()`` runs for the
head of the wire.  Each case here runs twice, once that way and once on
``auto_flush=False`` with an explicit ``flush()`` after every post, under
one fault of each datapath kind and an RNR exhaustion: the completions
on both sides (wr_id, opcode, status, in order), the bytes that landed
in the receiver's memory and the injector's fingerprint must be the
same.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import DATAPATH_KINDS
from repro.memory import AddressSpace, MemoryRegion
from repro.rdma import (
    Access,
    CompletionQueue,
    Fabric,
    Opcode,
    ProtectionDomain,
    QpState,
    QueuePair,
    WorkRequest,
)

SBUF = 0x10_0000
RBUF = 0x20_0000
SIZE = 0x1000
OPS = 4
#: the opportunity each fault fires at: the second transmit / op /
#: completion, so one clean operation precedes it
AT = 2


def run(auto_flush: bool, spec: FaultSpec | None, recv_wqes: int = OPS, rnr_retry: int = 7):
    fabric = Fabric(auto_flush=auto_flush)
    injector = FaultInjector(FaultPlan(7, [spec] if spec is not None else []))
    fabric.injector = injector
    sides = []
    for name in ("dpu", "host"):
        space = AddressSpace(name)
        sbuf = space.map(MemoryRegion(SBUF if name == "dpu" else RBUF, SIZE, f"{name}.sbuf"))
        rbuf = space.map(MemoryRegion(RBUF if name == "dpu" else SBUF, SIZE, f"{name}.rbuf"))
        pd = ProtectionDomain(space, f"{name}.pd")
        pd.register_memory(sbuf, Access.LOCAL_WRITE)
        pd.register_memory(rbuf, Access.LOCAL_WRITE | Access.REMOTE_WRITE)
        cq = CompletionQueue(capacity=64, name=f"{name}.cq")
        qp = QueuePair(pd, cq, cq, rnr_retry=rnr_retry, name=f"{name}.qp")
        qp.injector = injector
        pd.injector = injector
        sides.append((space, cq, qp, rbuf))
    (dspace, dcq, dqp, _), (_, hcq, hqp, hrbuf) = sides
    fabric.connect(dqp, hqp)
    for i in range(recv_wqes):
        hqp.post_recv(100 + i)
    for i in range(OPS):
        if dqp.state is not QpState.RTS:
            break
        addr = SBUF + 64 * i
        dspace.write(addr, bytes([i + 1]) * 16)
        dqp.post_send(WorkRequest(i, Opcode.RDMA_WRITE_WITH_IMM, addr, 16, addr, imm_data=i))
        if not auto_flush:
            fabric.flush()
    for _ in range(16):  # idle steps: the delay clock releases held CQEs
        fabric.step()

    def completions(cq):
        return [(wc.wr_id, wc.opcode, wc.status) for wc in cq.poll(1 << 10)]

    return {
        "requester": completions(dcq),
        "responder": completions(hcq),
        "bytes": bytes(hrbuf.buf[: 64 * OPS]),
        "fingerprint": injector.fingerprint(),
        "fired": injector.faults_fired,
        "stats": (fabric.total_operations, fabric.total_bytes,
                  fabric.rnr_retransmissions, dqp.rnr_events),
    }


def spec_for(kind: str) -> FaultSpec:
    extra = {"byte_offset": 3} if kind == "bitflip" else {}
    return FaultSpec(kind, at_count=AT, delay_ticks=3, **extra)


@pytest.mark.parametrize("kind", DATAPATH_KINDS)
def test_a_fault_sees_the_same_timeline_resolved_at_post_time(kind):
    direct = run(auto_flush=True, spec=spec_for(kind))
    stepped = run(auto_flush=False, spec=spec_for(kind))
    assert direct["fired"] == 1
    assert direct == stepped


def test_rnr_exhaustion_is_the_same_resolved_at_post_time():
    """Two receive WQEs for four writes: the third NAKs until its budget
    is spent, completes RNR_RETRY_EXCEEDED and breaks the QP."""
    direct = run(auto_flush=True, spec=None, recv_wqes=2, rnr_retry=2)
    stepped = run(auto_flush=False, spec=None, recv_wqes=2, rnr_retry=2)
    assert direct["stats"][2] == 3  # initial attempt + 2 retries
    assert direct == stepped
