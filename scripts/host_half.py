"""The host half of each request shape, offloaded against host-parse.

Fig. 8c of the paper is host CPU freed by the offload.  This measures
its in-process shadow: for each request shape of the end-to-end
benchmark's service (``benchmarks/e2e/service.py``, imported read-only,
so the servicer and corpus are the benchmark's), a closed loop at depth
16 drives the two in-process deployments of ``repro.deploy.build`` and
brackets with ``time.perf_counter_ns`` the part of each pass that runs
on the host:

* ``offloaded``: ``host.progress`` — the host engine's pass (request
  block receive, the handler on the in-block object, response encode,
  response block send);
* ``baseline``: ``front.progress`` — the host-parse xRPC server, which
  is the whole server (deframe, parse, servicer, encode, frame).

Each cell is the median of ``--repeats`` windows of ``--requests``
requests, in µs per request; the last column is offloaded / baseline,
the paper's Fig. 8c ratio (host CPU with the offload over without it).
A time, so it moves with the machine's speed: compare two trees in
alternating sessions on one machine, not across machines.

Run from the repository root::

    python3 scripts/host_half.py [--requests 2000] [--repeats 3] [--json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.service import build_corpus, compile_service, make_servicer  # noqa: E402
from repro.deploy import build  # noqa: E402
from repro.xrpc import FrameDecoder  # noqa: E402

SHAPES = ("PingSmall", "SumInts", "CountChars", "GenInts")
#: the paper's Fig. 8c host-CPU ratio (1 / reduction) per shape
PAPER = {"PingSmall": 1 / 1.8, "SumInts": 1 / 8.0, "CountChars": 1 / 1.53}
DEPTH = 16


def host_us_per_request(kind: str, shape: str, requests: int, repeats: int) -> float:
    """Median over ``repeats`` windows of the host half's µs per request."""
    schema, service = compile_service()
    corpus = build_corpus(schema, service, (shape,), seed=1)
    with build(kind, schema, service, make_servicer(schema)) as deployment:
        socket = deployment.connect()
        decoder = FrameDecoder()
        front, host = deployment.front, deployment.host
        timed = host if kind == "offloaded" else front
        clock = time.perf_counter_ns
        frames, n = corpus.frames, len(corpus.frames)
        sent = done = spent = 0

        def run(total: int) -> None:
            nonlocal sent, done, spent
            while done < total:
                while sent < min(done + DEPTH, total):
                    socket.send(frames[sent % n])
                    sent += 1
                if host is not None:
                    front.progress()
                t0 = clock()
                timed.progress()
                spent += clock() - t0
                data = socket.recv(1 << 20)
                if data:
                    decoder.feed(data)
                    for frame in decoder.frames():
                        if frame.status:
                            raise AssertionError(f"{shape} on {kind}: status {frame.status}")
                        done += 1

        run(4 * DEPTH)  # codecs compiled, pools cycled once
        windows = []
        for _ in range(repeats):
            spent, start = 0, done
            run(done + requests)
            windows.append(spent / (done - start) / 1000)
    return statistics.median(windows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="one JSON object, no table")
    args = parser.parse_args(argv)
    rows = {}
    for shape in SHAPES:
        offloaded = host_us_per_request("offloaded", shape, args.requests, args.repeats)
        baseline = host_us_per_request("baseline", shape, args.requests, args.repeats)
        rows[shape] = {"offloaded_us": offloaded, "baseline_us": baseline,
                       "ratio": offloaded / baseline}
    if args.json:
        print(json.dumps(rows))
        return 0
    print(f"{'shape':<11} {'offloaded us':>13} {'baseline us':>12} {'ratio':>7} {'paper':>7}")
    for shape, row in rows.items():
        paper = f"{PAPER[shape]:.3f}" if shape in PAPER else "-"
        print(f"{shape:<11} {row['offloaded_us']:13.2f} {row['baseline_us']:12.2f} "
              f"{row['ratio']:7.3f} {paper:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
