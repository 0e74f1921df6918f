"""A count that repeats exactly: Python-level calls per Small request.

ROADMAP item 2 says the block, not the message, should be the unit of
interpreter work.  Wall-clock says whether that paid; this says whether
it *holds*: ``sys.setprofile`` counts every Python-level ``call`` event
while a minimal closed loop drives 640 Small requests through
``repro.deploy.build("offloaded", ...)`` — at depth 16, where sixteen
messages share a block and the per-message path shows, and at depth 1,
where every request pays a block each way and the per-block path shows
(seal, post, deliver, completions, repost, open).  The count depends on
the code alone — no clock, no scheduler — so it is asserted, not
reported as a speed: the two test functions below hold both budgets in
the tier-1 run.  ``python tests/integration/test_call_budget.py`` prints
both counts and exits non-zero above either budget.
"""

from __future__ import annotations

import sys

from repro.deploy import build
from repro.proto import serialize
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import FrameDecoder, StatusCode, encode_request

REQUESTS = 640
DEPTH = 16
#: Python-level calls per request this script counted at the parent of
#: the change that made a partial block's hold an int on the endpoint
#: (commit ce2af41: one flush-policy call per endpoint pass)
PARENT_CALLS = {16: 63.9391, 1: 168.0016}
#: depth -> budget, halfway between that parent and what the change
#: counted alone (63.8141 and 166.0016: 40 841 and 106 241 calls for the
#: 640 requests).  The parent fails both; the margin absorbs the few
#: calls that can land inside the window when the whole suite shares
#: the process (+2 seen once at depth 1; alone the count never moved).
BUDGET = {16: 63.8766, 1: 167.0}


def python_calls_per_request(requests: int = REQUESTS, depth: int = DEPTH) -> float:
    schema, service, servicer = bench_service()
    wire = serialize(WorkloadFactory(schema=schema).small())
    frames = [encode_request(i, "/bench.Bench/PingSmall", wire) for i in range(depth)]
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
    assert first <= BUDGET[DEPTH], (
        f"{first:.2f} Python-level calls per Small request, budget {BUDGET[DEPTH]:.2f} "
        f"(the parent's {PARENT_CALLS[DEPTH]})")


def test_a_block_crosses_the_offloaded_datapath_within_its_call_budget():
    """Depth 1: one message per block each way, nothing amortizes."""
    measured = python_calls_per_request(depth=1)
    assert measured <= BUDGET[1], (
        f"{measured:.2f} Python-level calls per Small request at depth 1, budget "
        f"{BUDGET[1]:.2f} (the parent's {PARENT_CALLS[1]})")


if __name__ == "__main__":
    over = False
    for depth in (DEPTH, 1):
        measured = python_calls_per_request(depth=depth)
        over |= measured > BUDGET[depth]
        print(f"python_calls_per_small_request depth={depth} {measured:.4f} "
              f"budget {BUDGET[depth]:.4f} parent {PARENT_CALLS[depth]}")
    sys.exit(over)
