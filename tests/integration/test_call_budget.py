"""A count that repeats exactly: Python-level calls per request.

ROADMAP item 2 says the block, not the message, should be the unit of
interpreter work.  Wall-clock says whether that paid; this says whether
it *holds*: ``sys.setprofile`` counts every Python-level ``call`` event
while a minimal closed loop drives 640 Small requests through
``repro.deploy.build("offloaded", ...)`` — at depth 16, where sixteen
messages share a block and the per-message path shows, and at depth 1,
where every request pays a block each way and the per-block path shows
(seal, post, deliver, completions, repost, open) — and for x512 Ints and
x8000 Chars requests at depth 16, the Chars one block each way per
request, so the per-block path under load shows too.  The count depends
on the code alone — no clock, no scheduler — so it is asserted, not
reported as a speed: the test functions below hold every budget in the
tier-1 run.  ``python tests/integration/test_call_budget.py`` prints
every count and exits non-zero above any budget.
"""

from __future__ import annotations

import gc
import sys

from repro.deploy import build
from repro.proto import serialize
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import FrameDecoder, StatusCode, encode_request

REQUESTS = 640
DEPTH = 16
#: (method, depth) of each counted shape
SMALL, SMALL_D1, INTS = ("PingSmall", 16), ("PingSmall", 1), ("SumInts", 16)
CHARS = ("Upper", 16)
#: Python-level calls per request this script counted at the parent of
#: the change that cut each block's send and receive path to one
#: straight line (a block sealed, stamped and posted in one step, opened
#: in one ``read_block``, QPs checking bounds against their resolved
#: spans, the §IV-D slot table)
PARENT_CALLS = {SMALL: 38.8141, SMALL_D1: 141.0016, INTS: 114.2516, CHARS: 136.3766}
#: shape -> budget: what the change counted alone (36.2516, 100.0016,
#: 104.2516 and 97.2516: 23 201, 64 001, 66 721 and 62 241 calls for the
#: 640 requests) plus 2.5 calls, the margin that absorbs the calls that
#: land inside the window when the whole suite shares the process (a
#: garbage collection runs the callbacks other libraries registered,
#: about 2).  The parent fails each.
BUDGET = {SMALL: 38.7516, SMALL_D1: 102.5016, INTS: 106.7516, CHARS: 99.7516}


def python_calls_per_request(requests: int = REQUESTS, depth: int = DEPTH,
                             method: str = "PingSmall") -> float:
    schema, service, servicer = bench_service()
    factory = WorkloadFactory(schema=schema)
    wire = serialize({"PingSmall": factory.small, "SumInts": lambda: factory.int_array(512),
                      "Upper": lambda: factory.char_array(8000)}[method]())
    frames = [encode_request(i, f"/bench.Bench/{method}", wire) for i in range(depth)]
    with build("offloaded", schema, service, servicer) as deployment:
        socket = deployment.connect()
        decoder = FrameDecoder()
        sent = done = 0

        def run(total: int) -> None:
            nonlocal sent, done
            while done < total:
                while sent < min(done + depth, total):
                    socket.send(frames[sent % depth])
                    sent += 1
                deployment.drive()
                data = socket.recv(1 << 20)
                if data:
                    decoder.feed(data)
                    for frame in decoder.frames():
                        assert frame.status == StatusCode.OK
                        done += 1

        run(4 * depth)  # decoders compiled, block and id pools cycled once
        calls = 0

        def profile(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        # Collections then fall at the same points in every window.
        gc.collect()
        sys.setprofile(profile)
        try:
            run(4 * depth + requests)
        finally:
            sys.setprofile(None)
        assert deployment.front.requests_forwarded == sent
        assert deployment.front.fallback_requests == 0
    return calls / requests


def test_a_small_request_crosses_the_offloaded_datapath_within_its_call_budget():
    first = python_calls_per_request()
    assert first == python_calls_per_request(), "the count must repeat exactly"
    assert first <= BUDGET[SMALL], (
        f"{first:.2f} Python-level calls per Small request, budget {BUDGET[SMALL]:.2f} "
        f"(the parent's {PARENT_CALLS[SMALL]})")


def test_a_block_crosses_the_offloaded_datapath_within_its_call_budget():
    """Depth 1: one message per block each way, nothing amortizes."""
    measured = python_calls_per_request(depth=1)
    assert measured <= BUDGET[SMALL_D1], (
        f"{measured:.2f} Python-level calls per Small request at depth 1, budget "
        f"{BUDGET[SMALL_D1]:.2f} (the parent's {PARENT_CALLS[SMALL_D1]})")


def test_an_ints_request_crosses_the_offloaded_datapath_within_its_call_budget():
    """x512 Ints at depth 16: several messages per block, the arena's
    repeated-field path and a view read of every element."""
    first = python_calls_per_request(method="SumInts")
    assert first == python_calls_per_request(method="SumInts"), (
        "the count must repeat exactly")
    assert first <= BUDGET[INTS], (
        f"{first:.2f} Python-level calls per x512 Ints request, budget "
        f"{BUDGET[INTS]:.2f} (the parent's {PARENT_CALLS[INTS]})")


def test_a_chars_request_crosses_the_offloaded_datapath_within_its_call_budget():
    """x8000 Chars at depth 16: each request fills a block each way, so
    the per-block path is paid once per request under load."""
    first = python_calls_per_request(method="Upper")
    assert first == python_calls_per_request(method="Upper"), (
        "the count must repeat exactly")
    assert first <= BUDGET[CHARS], (
        f"{first:.2f} Python-level calls per x8000 Chars request, budget "
        f"{BUDGET[CHARS]:.2f} (the parent's {PARENT_CALLS[CHARS]})")


if __name__ == "__main__":
    over = False
    for method, depth in (SMALL, SMALL_D1, INTS, CHARS):
        measured = python_calls_per_request(depth=depth, method=method)
        over |= measured > BUDGET[method, depth]
        print(f"python_calls_per_request {method} depth={depth} {measured:.4f} "
              f"budget {BUDGET[method, depth]:.4f} parent {PARENT_CALLS[method, depth]}")
    sys.exit(over)
