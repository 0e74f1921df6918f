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
request, so the per-block path under load shows too.  Small at depth 16
is also counted inside each half's pass alone: ``front.progress`` (the
DPU half) and ``host.progress`` (the host half).  The count depends
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
#: the change that made each message one straight line on both halves
#: (varints read inline, the arena decoder storing its own fields, the
#: payload writer the deserializer itself, one serve call per frame,
#: one put per message, the host writing into the span it holds)
PARENT_CALLS = {SMALL: 36.2516, SMALL_D1: 100.0016, INTS: 104.2516, CHARS: 97.2516}
#: ... and Small at depth 16 inside each half's pass alone
PARENT_HALVES = {"dpu": 19.25, "host": 14.5}
#: shape -> budget: what the change counted alone (25.2516, 89.0016,
#: 79.2516 and 74.2516: 16 161, 56 961, 50 721 and 47 521 calls for the
#: 640 requests) plus 2.5 calls, the margin that absorbs the calls that
#: land inside the window when the whole suite shares the process (a
#: garbage collection runs the callbacks other libraries registered,
#: about 2).  The parent fails each.
BUDGET = {SMALL: 27.7516, SMALL_D1: 91.5016, INTS: 81.7516, CHARS: 76.7516}
#: half -> budget for Small at depth 16: the change's 12.25 (DPU) and
#: 10.50 (host) plus the same 2.5; the parent fails the DPU half's.
HALF_BUDGET = {"dpu": 14.75, "host": 13.0}


def python_calls_per_request(requests: int = REQUESTS, depth: int = DEPTH,
                             method: str = "PingSmall") -> dict[str, float]:
    """Python-level calls per request in the whole loop (``all``), and
    inside ``front.progress`` (``dpu``, the DPU half) and
    ``host.progress`` (``host``, the host half) alone."""
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
        calls = {"all": 0, "dpu": 0, "host": 0}
        halves = {type(deployment.front).progress.__code__: "dpu",
                  type(deployment.host).progress.__code__: "host"}
        half = None  # the half whose progress pass is running

        def profile(frame, event, _arg):
            nonlocal half
            if event == "call":
                calls["all"] += 1
                half = half or halves.get(frame.f_code)
                if half is not None:
                    calls[half] += 1
            elif event == "return" and frame.f_code in halves:
                half = None

        # Collections then fall at the same points in every window.
        gc.collect()
        sys.setprofile(profile)
        try:
            run(4 * depth + requests)
        finally:
            sys.setprofile(None)
        assert deployment.front.requests_forwarded == sent
        assert deployment.front.fallback_requests == 0
    return {key: count / requests for key, count in calls.items()}


def test_a_small_request_crosses_the_offloaded_datapath_within_its_call_budget():
    """Depth 16, and each half's pass alone: ``front.progress`` on the
    DPU (deframe, forward, arena decode, block) and ``host.progress``
    (request block, handler, response encode, response block)."""
    first = python_calls_per_request()
    assert first == python_calls_per_request(), "the count must repeat exactly"
    assert first["all"] <= BUDGET[SMALL], (
        f"{first['all']:.2f} Python-level calls per Small request, budget "
        f"{BUDGET[SMALL]:.2f} (the parent's {PARENT_CALLS[SMALL]})")
    for half, budget in HALF_BUDGET.items():
        assert first[half] <= budget, (
            f"{first[half]:.2f} calls per Small request in the {half} half, budget "
            f"{budget:.2f} (the parent's {PARENT_HALVES[half]})")


def test_a_block_crosses_the_offloaded_datapath_within_its_call_budget():
    """Depth 1: one message per block each way, nothing amortizes."""
    measured = python_calls_per_request(depth=1)["all"]
    assert measured <= BUDGET[SMALL_D1], (
        f"{measured:.2f} Python-level calls per Small request at depth 1, budget "
        f"{BUDGET[SMALL_D1]:.2f} (the parent's {PARENT_CALLS[SMALL_D1]})")


def test_an_ints_request_crosses_the_offloaded_datapath_within_its_call_budget():
    """x512 Ints at depth 16: several messages per block, the arena's
    repeated-field path and a view read of every element."""
    first = python_calls_per_request(method="SumInts")
    assert first == python_calls_per_request(method="SumInts"), (
        "the count must repeat exactly")
    assert first["all"] <= BUDGET[INTS], (
        f"{first['all']:.2f} Python-level calls per x512 Ints request, budget "
        f"{BUDGET[INTS]:.2f} (the parent's {PARENT_CALLS[INTS]})")


def test_a_chars_request_crosses_the_offloaded_datapath_within_its_call_budget():
    """x8000 Chars at depth 16: each request fills a block each way, so
    the per-block path is paid once per request under load."""
    first = python_calls_per_request(method="Upper")
    assert first == python_calls_per_request(method="Upper"), (
        "the count must repeat exactly")
    assert first["all"] <= BUDGET[CHARS], (
        f"{first['all']:.2f} Python-level calls per x8000 Chars request, budget "
        f"{BUDGET[CHARS]:.2f} (the parent's {PARENT_CALLS[CHARS]})")


if __name__ == "__main__":
    over = False
    for method, depth in (SMALL, SMALL_D1, INTS, CHARS):
        measured = python_calls_per_request(depth=depth, method=method)
        over |= measured["all"] > BUDGET[method, depth]
        print(f"python_calls_per_request {method} depth={depth} {measured['all']:.4f} "
              f"budget {BUDGET[method, depth]:.4f} parent {PARENT_CALLS[method, depth]}")
        if (method, depth) == SMALL:
            for half, budget in HALF_BUDGET.items():
                over |= measured[half] > budget
                print(f"  {half} half {measured[half]:.4f} budget {budget:.4f} "
                      f"parent {PARENT_HALVES[half]}")
    sys.exit(over)
