"""The closed-loop driver and the estimators over its segments.

One thread, one connection, ``depth`` requests outstanding.  The timed
loop does only what a client must: patch the call id into a pre-built
frame, send it, let the deployment run, receive, decode, compare the
payload with the pre-computed expectation.  Everything else — request
generation, percentile arithmetic — happens outside the window.

A window is a row of segments.  Each starts with an empty pipeline,
sends for its nominal length, then drains; between segments the machine's
momentary speed is sampled (:mod:`calibrate`), and every time-based
estimate is taken *at reference machine speed*: a segment's rate is
divided, its times multiplied, by the mean of the two samples around it.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

from repro.metrics.monitor import StabilityMonitor, TimeSeries
from repro.workloads import percentile
from repro.xrpc.framing import FrameDecoder, FrameType

from .procfs import cpu_seconds
from .service import Corpus, patch_call_id

__all__ = ["ClosedLoop", "Segment", "summarize", "tail_quantile"]

_RING = 256  # send-timestamp slots; must exceed any depth


@dataclass
class Segment:
    duration_s: float
    ok: int
    latencies_ns: list
    #: utime+stime spent in the segment, one entry per process of the deployment
    cpu_s: list
    #: machine speed relative to the reference, sampled just before and
    #: just after the segment
    speeds: tuple = (1.0, 1.0)

    @property
    def speed(self) -> float:
        return sum(self.speeds) / 2


class ClosedLoop:
    def __init__(self, deployment, corpus: Corpus, depth: int) -> None:
        if not 1 <= depth < _RING:
            raise ValueError(f"depth must be in [1, {_RING})")
        self.depth = depth
        self.drive = deployment.drive
        self._send = deployment.socket.send
        self._recv = deployment.socket.recv
        self._frames_out = corpus.frames
        self.expected = corpus.expected
        # Bound now, so a traced pass that wraps FrameDecoder on the
        # class (to see the server side) never times the client's.
        decoder = FrameDecoder()
        self._feed = decoder.feed
        self._frames_in = decoder.frames
        self._sent_ns = [0] * _RING
        self._latencies: list[int] = []
        self.sent = 0
        self.done = 0
        self.ok = 0
        #: when set, top_up never sends past this many requests in total
        self.stop_at: int | None = None

    @property
    def failed(self) -> int:
        """Non-OK, wrong payload, or (once drained) unanswered."""
        return self.sent - self.ok

    # -- the three phases of one pass -----------------------------------------

    def top_up(self) -> None:
        frames = self._frames_out
        n = len(frames)
        sent = self.sent
        limit = self.done + self.depth
        if self.stop_at is not None:
            limit = min(limit, self.stop_at)
        while sent < limit:
            frame = frames[sent % n]
            patch_call_id(frame, sent)
            self._sent_ns[sent % _RING] = time.perf_counter_ns()
            self._send(frame)
            sent += 1
        self.sent = sent

    def collect(self) -> None:
        data = self._recv(1 << 20)
        if not data:
            return
        self._feed(data)
        expected = self.expected
        n = len(expected)
        for frame in self._frames_in():
            now = time.perf_counter_ns()
            call_id = frame.call_id
            self.done += 1
            if (frame.frame_type != FrameType.RESPONSE or call_id >= self.sent
                    or frame.status or frame.message != expected[call_id % n]):
                continue
            self.ok += 1
            self._latencies.append(now - self._sent_ns[call_id % _RING])

    # -- windows --------------------------------------------------------------

    def run(self, segments: int, segment_s: float, pids=(), speed=None) -> list[Segment]:
        """``segments`` consecutive segments: send for ``segment_s``, then
        drain (a segment's rate is its count over its *actual* length,
        drain included).  CPU time is read for every process in ``pids``
        (default: this one); ``speed()`` samples the machine's speed
        before the first and after every segment."""
        pids = list(pids) or [os.getpid()]
        # Resolved once: a traced pass wraps these on the instance.
        top_up, drive, collect = self.top_up, self.drive, self.collect
        clock = time.perf_counter
        out: list[Segment] = []
        after = speed() if speed else 1.0
        for _ in range(segments):
            before = after
            self._latencies = []
            ok0, cpu0 = self.ok, [cpu_seconds(pid) for pid in pids]
            start = clock()
            cut = start + segment_s
            while clock() < cut:
                top_up()
                drive()
                collect()
            self.drain()
            duration = clock() - start
            cpu = [cpu_seconds(pid) - was for pid, was in zip(pids, cpu0)]
            after = speed() if speed else 1.0
            out.append(Segment(duration, self.ok - ok0, self._latencies, cpu, (before, after)))
        return out

    def drain(self, timeout_s: float = 2.0) -> int:
        """Stop sending; wait for what is outstanding.  Returns the
        number of requests still unanswered at the deadline."""
        deadline = time.perf_counter() + timeout_s
        while self.done < self.sent and time.perf_counter() < deadline:
            self.drive()
            self.collect()
        return self.sent - self.done

    def round_trips(self, count: int, timeout_s: float = 10.0) -> None:
        """Exactly ``count`` more requests, closed loop, all answered."""
        self.stop_at = self.sent + count
        deadline = time.perf_counter() + timeout_s
        try:
            while self.done < self.stop_at:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"{self.stop_at - self.done} requests unanswered")
                self.top_up()
                self.drive()
                self.collect()
        finally:
            self.stop_at = None


# -- estimators ---------------------------------------------------------------


def tail_quantile(counts: list[int], depth: int = 1, target: float = 0.99,
                  groups_beyond: int = 10) -> float:
    """The highest quantile <= ``target`` that leaves at least ten
    *independent* samples above it in every segment — a percentile with
    fewer is one event's accident, not a tail.  With ``depth`` requests
    outstanding, responses complete in groups of up to ``depth`` that
    share one fate (one slow pass delays them all), so ten independent
    samples are ``10 * depth`` requests."""
    n = min(counts)
    beyond = groups_beyond * depth
    if n <= 2 * beyond:
        return 0.5
    return min(target, (n - beyond) / n)


def summarize(segments: list[Segment], depth: int = 1) -> dict:
    """Median-over-segments estimates of one window driven at ``depth``,
    at reference machine speed; ``raw`` holds the same medians as they
    were on the wall clock."""
    counts = [len(s.latencies_ns) for s in segments]
    if min(counts) == 0:
        raise RuntimeError("a segment completed no request; the deployment is stalled")
    q = tail_quantile(counts, depth)
    ordered = [sorted(s.latencies_ns) for s in segments]
    series = TimeSeries("ok")
    series.observe(0.0, 0.0)
    elapsed_s = at_reference_s = total = 0.0
    for s in segments:
        elapsed_s += s.duration_s
        at_reference_s += s.duration_s * s.speed
        total += s.ok
        series.observe(at_reference_s, total)
    raw = {
        "rps": [s.ok / s.duration_s for s in segments],
        "p50_us": [percentile(o, 0.5) / 1e3 for o in ordered],
        "p99_us": [percentile(o, q) / 1e3 for o in ordered],
        "cpu_us_per_req": [sum(s.cpu_s) / s.ok * 1e6 for s in segments],
    }
    # At reference speed: a rate is divided, a time multiplied, by the
    # machine's speed while it was measured.
    speeds = [s.speed for s in segments]
    per_segment = {name: [v / f if name == "rps" else v * f for v, f in zip(values, speeds)]
                   for name, values in raw.items()}
    per_segment["speed"] = speeds
    summary = {name: statistics.median(values) for name, values in per_segment.items()}
    rates = per_segment["rps"]
    summary.update(
        segments=per_segment,
        raw={name: statistics.median(values) for name, values in raw.items()},
        mean_speed=at_reference_s / elapsed_s,
        tail_quantile=q,
        samples=sum(counts),
        rate_spread=(max(rates) - min(rates)) / summary["rps"],
        stable=StabilityMonitor(window=5, tolerance=0.05).is_stable(series),
        completed=int(total),
        elapsed_s=elapsed_s,
        cpu_s=[sum(per_process) for per_process in zip(*(s.cpu_s for s in segments))],
    )
    return summary
