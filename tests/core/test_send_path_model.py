"""Model test of the one send path both endpoint roles share
(``_EndpointBase._append`` / ``_send`` / ``flush`` / ``_flush_by_policy``)
and of the receive path behind it (records → dispatch → response append
→ seal).

A random interleaving of client enqueues, server responses, progress
passes on either side and explicit flushes — with message sizes drawn at
the boundaries where a block seals, payload writers that raise or
over-report, and handlers that raise — must keep, after every step and
on both sides: every SBuf block accounted for, credits conserved, one
flush reason per sealed block, no block sealed empty, no continuation
fired twice, every request of a received block answered in the pass
that received it, and every response block remembered with exactly the
request IDs its records carry; after a drain every request is resolved
exactly once.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Flags, ProtocolConfig, ProtocolError, Response, create_channel
from repro.core.wire import BlockReader, Preamble
from repro.runtime.overload import pack_deadline

KIB = 1024
BLOCK = 2 * KIB
CONCURRENCY = 8  # small, so the backlog admits most of the requests
DEADLINE_US = 1 << 60  # never expires; rides as a prefix word


#: passes both sides hold a partial block: none, or a few
HOLDS = {"eager": 0, "nagle": 4}


def config(credits: int) -> ProtocolConfig:
    return ProtocolConfig(
        block_size=BLOCK, block_alignment=KIB, credits=credits,
        send_buffer_size=4 * KIB * KIB, recv_buffer_size=4 * KIB * KIB,
        concurrency=CONCURRENCY,
    )


#: where a block seals before (remaining < size + 32) or after
#: (bytes_used >= block_size) a message, two to a block, empty, and both
#: sides of the LARGE form's threshold (payloads of 2^16 bytes and up)
sizes = st.one_of(
    st.sampled_from([0, 1, 8, 100, 65534, 65535, 65536]),
    st.integers(BLOCK - 80, BLOCK + 1),
    st.integers(BLOCK // 2 - 48, BLOCK // 2),
)
writer_modes = st.sampled_from(["ok", "ok", "ok", "ok", "raise", "over"])
#: what answers a request: a response writer, or a handler that raises
response_modes = st.sampled_from(["ok", "ok", "ok", "ok", "raise", "over", "handler"])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), sizes, writer_modes, sizes, response_modes,
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
        cfg = config(credits)
        self.ch = create_channel(cfg, cfg)
        self.client, self.server = self.ch.client, self.ch.server
        self.client.flush_hold = self.server.flush_hold = HOLDS[flush_policy]
        #: what the server will see, in order: (tag, size, deadline?, response plan)
        self.expected = deque()
        self.fired: dict[int, int] = {}
        self.rejected: set[int] = set()
        self.requests = 0
        self.sendable = 0  # requests whose own writer works
        self.failed_answers = 0  # requests the server answered with ERROR
        #: blocks with messages handed to the wire, per side — counted
        #: where every block leaves, independently of ``flush_reasons``
        self.data_blocks = {self.client: 0, self.server: 0}
        for ep in (self.client, self.server):
            self._count_data_blocks(ep)
        self.server.register(1, self.handle)

    def _count_data_blocks(self, ep) -> None:
        post_send = ep.qp.post_send

        def counted(wr):
            self.data_blocks[ep] += bool(Preamble.read(ep.sbuf, wr.local_addr).message_count)
            return post_send(wr)

        ep.qp.post_send = counted

    # -- the two applications ---------------------------------------------------

    def handle(self, req):
        tag, size, with_deadline, resp_size, resp_mode = self.expected.popleft()
        assert req.payload_size == size
        assert req.payload_bytes()[:16] == bytes([tag % 251]) * min(size, 16)
        assert req.deadline_us == (DEADLINE_US if with_deadline else 0)
        assert not req.flags & (Flags.DEADLINE | Flags.TRACE_CTX)
        self.failed_answers += resp_mode != "ok"
        if resp_mode == "handler":
            raise Boom(tag)
        if resp_mode == "ok" and tag % 2:
            return Response.from_bytes(bytes([tag % 251]) * resp_size)
        return Response(size=resp_size, writer=make_writer(tag, resp_size, resp_mode))

    def enqueue(self, size, mode, resp_size, resp_mode, with_deadline) -> None:
        tag = self.requests
        self.requests += 1
        self.fired[tag] = 0

        def continuation(view, flags):
            self.fired[tag] += 1
            if mode != "ok" or resp_mode != "ok":
                # failed locally when the backlog admitted it, or by the
                # server: one answer either way (no wire-format error here,
                # so no MALFORMED — and not ABORTED, nobody gave up on it)
                assert flags == Flags.ERROR
            else:
                # (a LARGE response shows its wire form's flag)
                assert flags & ~Flags.LARGE == 0 and len(view) == resp_size
                assert bytes(view[:16]) == bytes([tag % 251]) * min(resp_size, 16)

        if mode == "ok":
            self.sendable += 1
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
        # a response block is outstanding from transmit to acknowledgment
        self._check_side(server, in_flight=len(server._outstanding_responses))
        assert all(
            count + (tag in self.rejected) <= 1 for tag, count in self.fired.items()
        )
        # the receive path: a request block is dispatched to its end in
        # the pass that received it, whatever its handlers and writers do
        stats = server.stats
        assert stats.requests_received == stats.responses_sent == (
            self.sendable - len(self.expected))
        assert stats.handler_errors == self.failed_answers
        # ...and a response block is remembered with the IDs it answers
        assert len(server._open_notes) == (
            server._writer.message_count if server._writer is not None else 0)
        for sbuf_addr, ids in server._outstanding_responses:
            reader = BlockReader(server.sbuf, sbuf_addr, server.sbuf.base
                                 + server.sbuf.size - sbuf_addr)
            assert [rid for rid, _, _, _ in reader.records()] == ids

    def _check_side(self, ep, in_flight: int, uncredited: int = 0) -> None:
        queued = len(ep._send_queue)
        is_open = ep._writer is not None
        assert ep.allocator.live_count == is_open + queued + in_flight + uncredited
        assert ep.credits.available + in_flight == ep.config.credits
        assert sum(ep.flush_reasons.values()) == self.data_blocks[ep] + queued
        assert not is_open or ep._writer.message_count >= 1
        assert all(out.message_count >= 1 for out in ep._send_queue)


@pytest.mark.parametrize("flush_policy", ["eager", "nagle"])
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


@pytest.mark.parametrize("per_block", [1, 5])
def test_a_request_block_is_dispatched_to_its_end(per_block):
    """Five requests, the second answered by a handler that raises and
    the fourth by a response writer that raises: at one message per
    block and at five, each is answered exactly once, in order, in the
    pass that received it — a failure mid-block costs its own request."""
    model = Model(credits=8, flush_policy="eager")
    modes = ["ok", "handler", "ok", "raise", "ok"]
    answers: list[tuple[int, int]] = []
    for tag, resp_mode in enumerate(modes):
        model.requests += 1
        model.sendable += 1
        model.expected.append((tag, 8, False, 8, resp_mode))
        model.client.enqueue(
            1, 8, make_writer(tag, 8, "ok"),
            lambda view, flags, tag=tag: answers.append((tag, flags)),
        )
        if (tag + 1) % per_block == 0:
            model.client.flush()
            assert model.server.progress() == per_block
            model.check()
    blocks = [
        [(rid, flags) for rid, flags, _, _ in BlockReader(
            model.server.sbuf, addr, model.server.sbuf.size).records()]
        for addr, _ in model.server._outstanding_responses
    ]
    assert [len(block) for block in blocks] == [per_block] * (5 // per_block)
    assert [flags for block in blocks for _, flags in block] == [
        Flags.NONE if mode == "ok" else Flags.ERROR for mode in modes]
    assert model.server.stats.handler_errors == 2
    assert model.ch.engine.drain(max_iters=100)
    model.check()
    assert answers == [
        (tag, Flags.NONE if mode == "ok" else Flags.ERROR) for tag, mode in enumerate(modes)]
