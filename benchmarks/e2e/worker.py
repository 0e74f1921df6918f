"""One workload, one process: set up, verify, warm up, measure.

``cli.py`` starts this module's :func:`main` in a fresh subprocess per
workload and pass, so no pass inherits another's warmed caches, grown
heaps or installed wrappers.  The result is one JSON object on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import signal
import sys
import time

from . import calibrate, deploy, layers, procfs
from .driver import ClosedLoop, summarize
from .service import Corpus, build_corpus, compile_service
from .spans import SpanRecorder, is_wrapped
from .spec import SEGMENT_S, WARMUP_S, WORKLOADS

__all__ = ["main", "segment_plan", "self_check"]

OUT_DIR = pathlib.Path(__file__).parent / "out"
#: share of a traced run's window spent untraced first, as the
#: reference rate for ``harness.trace_overhead``
_REFERENCE_SHARE = 0.3
#: requests in the fixed batch that counts region_of calls
_COUNT_BATCH = 64


def segment_plan(seconds: float) -> tuple[int, float]:
    """(segments, seconds each): 1 s segments, but never fewer than five."""
    count = max(5, round(seconds / SEGMENT_S))
    return count, seconds / count


def self_check(deployment, corpus: Corpus, depth: int, requests: int = 4) -> None:
    """The negative control: against deliberately wrong expectations
    every response must be flagged, or the verification has rotted."""
    wrong = Corpus(corpus.frames, [e + b"\x00" for e in corpus.expected])
    probe = ClosedLoop(deployment, wrong, depth)
    probe.round_trips(requests)
    if probe.done != requests or probe.ok != 0:
        raise AssertionError(
            f"verification self-check: {probe.ok} of {probe.done} corrupted "
            "expectations passed")


def _assert_no_wrappers(deployment, loop) -> None:
    """The untraced window must run the code as shipped."""
    from repro.xrpc.framing import FrameDecoder

    suspects = [(loop, a) for a in ("top_up", "collect", "drive")]
    suspects += [(FrameDecoder, "feed"), (FrameDecoder, "frames")]
    for part in deployment.parts.values():
        suspects += [(part, a) for a in vars(part) if callable(getattr(part, a, None))]
    wrapped = [f"{type(o).__name__}.{a}" for o, a in suspects if is_wrapped(getattr(o, a))]
    if wrapped:
        raise AssertionError(f"span wrappers active in an untraced window: {wrapped}")


def _speed_sampler(deployment):
    """``calibrate.speed`` with the deployment's other processes stopped
    meanwhile (the pipeline is drained whenever this runs).  The yardstick
    must measure the machine: idle children still poll, and beside them
    it would measure the program under test — and change with it."""
    others = [pid for role, pid in deployment.pids.items() if role != "client"]

    def speed(duration_s: float = 0.06) -> float:
        for pid in others:
            os.kill(pid, signal.SIGSTOP)
        try:
            return calibrate.speed(duration_s)
        finally:
            for pid in others:
                os.kill(pid, signal.SIGCONT)

    return speed


def _measure(workload, seed: int, seconds: float, trace: bool, spawned_at: float,
             setup_only: bool) -> dict:
    recorder = SpanRecorder() if trace else None
    schema, service = compile_service()
    deployment = deploy.build(workload.deployment, schema, service, recorder)
    try:
        started = time.monotonic()
        corpus = build_corpus(schema, service, workload.methods, seed)
        generation_s = time.monotonic() - started
        loop = ClosedLoop(deployment, corpus, workload.depth)
        loop.round_trips(len(workload.methods))  # the corpus interleaves the methods
        if loop.failed:
            raise AssertionError("set-up round trip returned a wrong response")
        setup_s = time.monotonic() - spawned_at - generation_s
        speed = _speed_sampler(deployment)
        result = {"raw_setup_s": setup_s, "setup_s": setup_s * speed(0.1)}
        if setup_only:
            return result
        self_check(deployment, corpus, workload.depth)
        deployment.assert_untraced()
        _assert_no_wrappers(deployment, loop)

        pids = list(deployment.pids.values())
        count, length = segment_plan(seconds)

        def window(segments: int) -> dict:
            return summarize(loop.run(segments, length, pids, speed), loop.depth)

        loop.run(1, WARMUP_S)
        if not trace:
            result["window"] = window(count)
            result["window"]["peak_rss_mb"] = procfs.peak_rss_mb(pids)
        else:
            reference_count = max(1, round(count * _REFERENCE_SHARE))
            reference = window(reference_count)
            before = layers.counters(deployment)
            layers.install(recorder, deployment, loop)
            recorder.active = True
            try:
                traced = window(count - reference_count)
            finally:
                recorder.active = False
                recorder.restore()
            after = layers.counters(deployment)
            region_of = layers.count_region_of(recorder, deployment, loop, _COUNT_BATCH)
            result["reference"], result["traced"] = reference, traced
            result["layers"] = layers.per_layer_metrics(
                recorder, before, after, traced, reference, list(deployment.pids),
                region_of, error_share=loop.failed / loop.sent)
            OUT_DIR.mkdir(exist_ok=True)
            result["spans_written"] = recorder.dump(OUT_DIR / f"trace_{workload.name}.jsonl")
        result["attempted"], result["failed"] = loop.sent, loop.failed
        return result
    finally:
        deployment.close()


def _terminate(signum, _frame) -> None:
    # Unwind through the finally blocks so a 3-process deployment is
    # stopped and its shm segments unlinked.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    result = _measure(workload, args.seed, args.seconds, bool(args.trace), spawned_at,
                      args.setup_only)
    survivors = multiprocessing.active_children()
    leaked = deploy.leaked_segments(os.getpid())
    if survivors or leaked:
        raise AssertionError(f"left behind: processes {survivors}, shm segments {leaked}")
    result.update(workload=workload.name, seed=args.seed, trace=args.trace)
    print(json.dumps(result))
    return 0

