"""A count that repeats exactly: Python-level calls per Small request.

ROADMAP item 2 says the block, not the message, should be the unit of
interpreter work.  Wall-clock says whether that paid; this says whether
it *holds*: ``sys.setprofile`` counts every Python-level ``call`` event
while a minimal closed loop drives 640 Small requests at depth 16
through ``repro.deploy.build("offloaded", ...)``.  The count depends on
the code alone — no clock, no scheduler — so it is asserted, not
reported as a speed.  ``python tests/integration/test_call_budget.py``
prints it (CI's benchmark smoke job does, and fails above the budget).
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
#: the PR that made the block the unit (commit 1988374)
PARENT_CALLS_PER_REQUEST = 115.8766
BUDGET = 0.75 * PARENT_CALLS_PER_REQUEST


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
    assert first <= BUDGET, (
        f"{first:.2f} Python-level calls per Small request, budget {BUDGET:.2f} "
        f"(0.75 x the parent's {PARENT_CALLS_PER_REQUEST})")


if __name__ == "__main__":
    measured = python_calls_per_request()
    print(f"python_calls_per_small_request {measured:.4f} budget {BUDGET:.4f} "
          f"parent {PARENT_CALLS_PER_REQUEST}")
    sys.exit(measured > BUDGET)
