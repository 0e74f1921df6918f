"""Stateful property test: the protocol under arbitrary event
interleavings.

With a deferred fabric, delivery of RDMA operations is decoupled from
posting.  The state machine interleaves: enqueuing requests, delivering
single fabric operations, and running either side's event loop — in any
order hypothesis finds interesting — and checks the §IV invariants
continuously (ID-pool synchronization at quiescence, credit bounds,
memory conservation, every request answered exactly once, FIFO response
order per client).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import ProtocolConfig, Response, create_channel
from repro.rdma import Fabric

CFG = ProtocolConfig(
    block_size=1024,
    block_alignment=1024,
    credits=4,
    send_buffer_size=64 * 1024,
    recv_buffer_size=64 * 1024,
    concurrency=64,
)


class ProtocolMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.fabric = Fabric(auto_flush=False)
        self.channel = create_channel(CFG, CFG, fabric=self.fabric)
        self.channel.server.register(
            7, lambda req: Response.from_bytes(req.payload_bytes()[::-1])
        )
        self.sent: list[bytes] = []
        self.received: list[tuple[bytes, int]] = []
        self.seq = 0

    @rule(size=st.integers(0, 120))
    def enqueue(self, size: int) -> None:
        payload = self.seq.to_bytes(4, "little") + b"p" * size
        self.seq += 1
        self.sent.append(payload)
        self.channel.client.enqueue_bytes(
            7, payload, lambda v, f: self.received.append((bytes(v), f))
        )

    @rule()
    def deliver_one(self) -> None:
        self.fabric.step()

    @rule()
    def client_progress(self) -> None:
        self.channel.client.progress()

    @rule()
    def server_progress(self) -> None:
        self.channel.server.progress()

    @invariant()
    def credits_in_bounds(self) -> None:
        for ep in (self.channel.client, self.channel.server):
            assert 0 <= ep.credits.available <= ep.credits.initial

    @invariant()
    def responses_match_requests_in_order(self) -> None:
        # RC ordering + foreground execution => responses arrive in
        # request order, each the reversal of its request.
        for got, (sent) in zip(self.received, self.sent):
            assert got[0] == sent[::-1]
            assert got[1] == 0
        assert len(self.received) <= len(self.sent)

    @invariant()
    def memory_conserved(self) -> None:
        for ep in (self.channel.client, self.channel.server):
            assert ep.allocator.bytes_live + ep.allocator.bytes_free == ep.sbuf.size

    def teardown(self) -> None:
        # Drain everything; the system must reach quiescence.
        for _ in range(300):
            self.channel.client.progress()
            self.fabric.flush()
            self.channel.server.progress()
            self.fabric.flush()
            if len(self.received) == len(self.sent):
                break
        assert len(self.received) == len(self.sent)
        client, server = self.channel.client, self.channel.server
        # At quiescence the two ID pools agree (§IV-D).
        assert client.id_pool.fingerprint() == server.id_pool.fingerprint()
        # All client request blocks recycled (pure acks sent since wait
        # for the next one to be answered); credits fully restored.
        assert client.allocator.live_count == len(client._spent_acks)
        assert client.credits.available == client.credits.initial
        super().teardown()


TestProtocolInterleaving = ProtocolMachine.TestCase
TestProtocolInterleaving.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
