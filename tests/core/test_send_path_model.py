"""Model test of the one send path both endpoint roles share
(``_EndpointBase._append`` / ``_seal`` / ``flush`` / ``_flush_by_policy``).

A random interleaving of client enqueues, server responses, progress
passes on either side and explicit flushes — with message sizes drawn at
the boundaries where a block seals, and payload writers that raise or
over-report — must keep, after every step and on both sides: every SBuf
block accounted for, credits conserved, one flush reason per sealed
block, no block sealed empty, and no continuation fired twice; after a
drain every request is resolved exactly once.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Flags, ProtocolConfig, ProtocolError, Response, create_channel
from repro.runtime.overload import pack_deadline

KIB = 1024
BLOCK = 2 * KIB
CONCURRENCY = 8  # small, so the backlog admits most of the requests
DEADLINE_US = 1 << 60  # never expires; rides as a prefix word


def config(credits: int, flush_policy: str) -> ProtocolConfig:
    return ProtocolConfig(
        block_size=BLOCK, block_alignment=KIB, credits=credits,
        send_buffer_size=4 * KIB * KIB, recv_buffer_size=4 * KIB * KIB,
        concurrency=CONCURRENCY, flush_policy=flush_policy,
    )


#: where a block seals before (remaining < size + 32) or after
#: (bytes_used >= block_size) a message, two to a block, empty, and both
#: sides of the LARGE form's threshold (ProtocolConfig.max_payload ± 1)
sizes = st.one_of(
    st.sampled_from([0, 1, 8, 100, 65534, 65535, 65536]),
    st.integers(BLOCK - 80, BLOCK + 1),
    st.integers(BLOCK // 2 - 48, BLOCK // 2),
)
writer_modes = st.sampled_from(["ok", "ok", "ok", "ok", "raise", "over"])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), sizes, writer_modes, sizes, writer_modes,
                  st.booleans()),
        st.tuples(st.sampled_from(
            ["client_progress", "server_progress", "client_flush", "server_flush"])),
    ),
    min_size=1, max_size=40,
)


class Boom(Exception):
    pass


def make_writer(tag: int, size: int, mode: str):
    def writer(space, addr):
        if mode == "raise":
            raise Boom(tag)
        if size:
            space.write(addr, bytes([tag % 251]) * min(size, 16))
        return size + 1 if mode == "over" else size

    return writer


class Model:
    def __init__(self, credits: int, flush_policy: str) -> None:
        cfg = config(credits, flush_policy)
        self.ch = create_channel(cfg, cfg)
        self.client, self.server = self.ch.client, self.ch.server
        #: what the server will see, in order: (tag, size, deadline?, response plan)
        self.expected = deque()
        self.fired: dict[int, int] = {}
        self.rejected: set[int] = set()
        self.requests = 0
        #: blocks with messages handed to the wire, per side — counted
        #: where every block leaves, independently of ``flush_reasons``
        self.data_blocks = {self.client: 0, self.server: 0}
        for ep in (self.client, self.server):
            self._count_data_blocks(ep)
        self.server.register(1, self.handle)

    def _count_data_blocks(self, ep) -> None:
        transmit = ep._transmit

        def counted(out):
            self.data_blocks[ep] += bool(out.message_count)
            return transmit(out)

        ep._transmit = counted

    # -- the two applications ---------------------------------------------------

    def handle(self, req):
        tag, size, with_deadline, resp_size, resp_mode = self.expected.popleft()
        assert req.payload_size == size
        assert req.payload_bytes()[:16] == bytes([tag % 251]) * min(size, 16)
        assert req.deadline_us == (DEADLINE_US if with_deadline else 0)
        assert not req.flags & (Flags.DEADLINE | Flags.TRACE_CTX)
        if resp_mode == "ok" and tag % 2:
            return Response.from_bytes(bytes([tag % 251]) * resp_size)
        return Response(size=resp_size, writer=make_writer(tag, resp_size, resp_mode))

    def enqueue(self, size, mode, resp_size, resp_mode, with_deadline) -> None:
        tag = self.requests
        self.requests += 1
        self.fired[tag] = 0

        def continuation(view, flags):
            self.fired[tag] += 1
            if mode != "ok":
                # admitted from the backlog, failed locally
                assert flags == Flags.ERROR | Flags.ABORTED
            elif resp_mode != "ok":
                assert flags == Flags.ERROR
            else:
                # (a LARGE response shows its wire form's flag)
                assert flags & ~Flags.LARGE == 0 and len(view) == resp_size
                assert bytes(view[:16]) == bytes([tag % 251]) * min(resp_size, 16)

        if mode == "ok":
            self.expected.append((tag, size, with_deadline, resp_size, resp_mode))
        try:
            self.client.enqueue(
                1, size, make_writer(tag, size, mode), continuation,
                deadline=pack_deadline(DEADLINE_US) if with_deadline else 0,
            )
        except (Boom, ProtocolError):
            # a direct enqueue hands the writer's failure to its caller
            assert mode != "ok"
            self.rejected.add(tag)

    def step(self, op, *args) -> None:
        if op == "enqueue":
            self.enqueue(*args)
        elif op == "client_progress":
            self.client.progress()
        elif op == "server_progress":
            self.server.progress()
        elif op == "client_flush":
            self.client.flush()
        else:
            self.server.flush()

    # -- the invariants -----------------------------------------------------------

    def check(self) -> None:
        client, server = self.client, self.server
        # pure-ack blocks take no credit; they wait for a later request
        # block — one already in flight, or the next — to be answered
        spent_acks = len(client._spent_acks) + sum(
            len(block[3]) for block in client._blocks.values())
        self._check_side(client, in_flight=len(client._blocks), uncredited=spent_acks)
        # a response block is outstanding from seal to acknowledgment
        self._check_side(
            server, in_flight=len(server._outstanding_responses) - len(server._send_queue),
        )
        assert all(
            count + (tag in self.rejected) <= 1 for tag, count in self.fired.items()
        )

    def _check_side(self, ep, in_flight: int, uncredited: int = 0) -> None:
        queued = len(ep._send_queue)
        is_open = ep._writer is not None
        assert ep.allocator.live_count == is_open + queued + in_flight + uncredited
        assert ep.credits.available + in_flight == ep.config.credits
        assert sum(ep.flush_reasons.values()) == self.data_blocks[ep] + queued
        assert not is_open or ep._writer.message_count >= 1
        assert all(out.message_count >= 1 for out in ep._send_queue)


@pytest.mark.parametrize("flush_policy", ["eager", "nagle", "bytes"])
@settings(max_examples=200, deadline=None)
@given(credits=st.sampled_from([2, 8]), script=steps)
def test_the_send_path_keeps_its_books(flush_policy, credits, script):
    model = Model(credits, flush_policy)
    model.check()
    for step in script:
        model.step(*step)
        model.check()
    assert model.ch.engine.drain(max_iters=2000)
    model.check()
    assert not model.expected  # every admitted request reached the handler
    assert all(
        count + (tag in model.rejected) == 1 for tag, count in model.fired.items()
    )
