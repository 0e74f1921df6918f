"""Self-tests of the benchmark harness.

Outside tier-1 ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.workloads import percentile
from repro.xrpc.framing import FrameDecoder, StatusCode, encode_request, encode_response

from . import compare, deploy, spec, worker
from .driver import ClosedLoop, Segment, summarize, tail_quantile
from .service import Corpus, build_corpus, compile_service, patch_call_id
from .spans import SpanRecorder, is_wrapped
from .worker import segment_plan, self_check

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    """Advances only when told to: span arithmetic becomes exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int):
        def work(*_args):
            self.now += ns
        return work


@pytest.fixture(scope="module")
def baseline():
    schema, service = compile_service()
    deployment = deploy.build("baseline", schema, service)
    corpus = build_corpus(schema, service, ("PingSmall", "SumInts", "CountChars"), seed=7)
    yield deployment, corpus
    deployment.close()


# -- spans --------------------------------------------------------------------


def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    leaf_a = rec.timed("leaf", clock.spend(30))
    leaf_b = rec.timed("leaf", clock.spend(50))
    other = rec.timed("other", clock.spend(7))

    def middle_body():
        clock.spend(5)()
        leaf_a()
        clock.spend(5)()
        leaf_b()

    middle = rec.timed("middle", middle_body)

    def root_body():
        clock.spend(100)()
        middle()
        other()

    rec.timed("root", root_body)()
    assert rec.stats["leaf"] == [80, 80, 2]
    assert rec.stats["middle"] == [10, 90, 1]  # 90 total, 80 of it in the leaves
    assert rec.stats["other"] == [7, 7, 1]
    assert rec.stats["root"] == [100, 197, 1]  # siblings middle + other subtracted
    assert rec.self_ns("leaf", "middle", "other", "root") == 197  # self times partition the root
    by_id = {span[0]: span for span in rec.ring}
    parents = {span[1]: by_id[span[4]][1] if span[4] >= 0 else None for span in rec.ring}
    assert parents == {"leaf": "middle", "middle": "root", "other": "root", "root": None}
    assert [span[5] for span in rec.ring if span[1] == "leaf"] == [0, 1]  # call ordinals


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.spend(3)()
        raise ValueError("x")

    outer = rec.timed("outer", lambda: pytest.raises(ValueError, rec.timed("inner", boom)))
    outer()
    assert rec.stats["inner"] == [3, 3, 1]
    assert rec.stats["outer"][1] == 3 and rec.stats["outer"][0] == 0


def test_generator_spans_cover_resumptions_not_the_consumer():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def produce():
        for _ in range(3):
            clock.spend(10)()
            yield 1

    timed = rec.timed_generator("gen", produce)
    for _ in timed():
        clock.spend(1000)()  # the consumer's own work
    assert rec.stats["gen"][0] == 30
    assert rec.stats["gen"][2] == 4  # three items and the final StopIteration


def test_gated_wrapper_records_only_while_active():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    gated = rec.timed("g", clock.spend(5), gated=True)
    gated()
    assert rec.stats["g"] == [0, 0, 0]
    rec.active = True
    gated()
    assert rec.stats["g"] == [5, 5, 1]


def test_patches_are_restored_exactly():
    class Thing:
        def method(self):
            return "original"

    thing = Thing()
    thing.own = lambda: "own"
    own = thing.own
    rec = SpanRecorder()
    rec.wrap(thing, "method", "m")
    rec.wrap(thing, "own", "o")
    assert is_wrapped(thing.method) and is_wrapped(thing.own)
    assert thing.method() == "original" and thing.own() == "own"
    with pytest.raises(RuntimeError):
        rec.wrap(thing, "method", "again")
    rec.restore()
    assert "method" not in vars(thing) and thing.own is own
    assert not is_wrapped(thing.method) and not is_wrapped(thing.own)


# -- estimators ---------------------------------------------------------------


def test_tail_quantile_keeps_ten_independent_samples_beyond():
    assert tail_quantile([5000, 1000]) == 0.99  # 1000 * 0.01 = 10 beyond
    assert tail_quantile([5000, 500]) == pytest.approx(0.98)  # p99 would leave only 5
    q = tail_quantile([640])
    ordered = list(range(640))
    assert sum(v > percentile(ordered, q) for v in ordered) == 10
    assert tail_quantile([15]) == 0.5  # too few for any tail
    # At depth 16 a slow pass delays 16 responses at once: p99 of 1000
    # samples would sit inside the single slowest pass.
    assert tail_quantile([1000], depth=16) == pytest.approx(0.84)
    assert tail_quantile([20000], depth=16) == 0.99


def _segment(rate, latency_us, cpu_us, speed=1.0):
    n = int(rate)
    return Segment(1.0, n, [latency_us * 1000] * n, [n * cpu_us / 1e6], (speed, speed))


def test_summary_is_the_median_over_segments():
    # One slow, noisy segment among five must not move any estimate.
    segments = [_segment(1000, 100, 90)] * 4 + [_segment(400, 900, 300)]
    summary = summarize(segments)
    assert summary["rps"] == 1000
    assert summary["p50_us"] == 100 and summary["p99_us"] == 100
    assert summary["cpu_us_per_req"] == pytest.approx(90)
    assert summary["segments"]["rps"] == [1000, 1000, 1000, 1000, 400]
    assert summary["rate_spread"] == pytest.approx(0.6)
    assert summary["completed"] == 4400 and not summary["stable"]
    assert summarize([_segment(1000 + i, 100, 90) for i in range(10)])["stable"]


def test_estimates_are_taken_at_reference_machine_speed():
    # The same program on a machine running at 60 % speed: every rate is
    # 0.6x, every time 1/0.6x.  Normalised, the two windows agree.
    fast = summarize([_segment(1000, 100, 90)] * 5)
    slow = summarize([_segment(600, 100 / 0.6, 90 / 0.6, speed=0.6)] * 5)
    for name in ("rps", "p50_us", "p99_us", "cpu_us_per_req"):
        assert slow[name] == pytest.approx(fast[name]), name
    assert slow["speed"] == 0.6
    assert slow["raw"] == pytest.approx(
        {"rps": 600, "p50_us": 100 / 0.6, "p99_us": 100 / 0.6, "cpu_us_per_req": 90 / 0.6})


def test_cpu_time_sums_over_the_deployments_processes():
    segments = [Segment(1.0, 1000, [1] * 1000, [0.10, 0.20, 0.30])] * 5
    summary = summarize(segments)
    assert summary["cpu_us_per_req"] == pytest.approx(600)
    assert summary["cpu_s"] == pytest.approx([0.5, 1.0, 1.5])


def test_speed_is_sampled_around_every_segment(baseline):
    deployment, corpus = baseline
    samples = iter([1.0, 0.8, 0.6, 0.6])
    segments = ClosedLoop(deployment, corpus, depth=4).run(3, 0.02, speed=lambda: next(samples))
    assert [s.speeds for s in segments] == [(1.0, 0.8), (0.8, 0.6), (0.6, 0.6)]
    assert [s.speed for s in segments] == pytest.approx([0.9, 0.7, 0.6])
    assert all(s.ok == len(s.latencies_ns) > 0 for s in segments)


def test_other_processes_of_the_deployment_stand_still_while_the_yardstick_runs(monkeypatch):
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])

    def state() -> str:
        return pathlib.Path(f"/proc/{child.pid}/stat").read_text().rpartition(")")[2].split()[0]

    def settled(want: str) -> bool:
        deadline = time.monotonic() + 2.0
        while state() not in want and time.monotonic() < deadline:
            time.sleep(0.001)
        return state() in want

    class Procs:
        pids = {"client": os.getpid(), "dpu": child.pid}

    seen = []
    monkeypatch.setattr(worker.calibrate, "speed",
                        lambda duration_s=0.06: seen.append(settled("T")) or 0.9)
    try:
        assert worker._speed_sampler(Procs)() == 0.9
        assert seen == [True] and settled("SR")  # stopped meanwhile, running again after
    finally:
        child.kill()
        child.wait()


def test_segment_plan_never_drops_below_five_segments():
    assert segment_plan(10) == (10, 1.0)
    assert segment_plan(1) == (5, 0.2)


# -- frames and verification --------------------------------------------------


def test_patched_call_id_round_trips_through_the_decoder():
    frame = bytearray(encode_request(0, "/bench.E2e/PingSmall", b"\x08\x01"))
    decoder = FrameDecoder()
    for call_id in (0, 1, 255, 65536, 0xFFFFFFFF):
        patch_call_id(frame, call_id)
        decoder.feed(frame)
        (decoded,) = decoder.frames()
        assert decoded.call_id == call_id
        assert decoded.method == "/bench.E2e/PingSmall" and decoded.message == b"\x08\x01"


def test_every_response_is_compared_with_its_expectation(baseline):
    deployment, corpus = baseline
    assert len(corpus.frames) == 3 * 64 and len(set(map(bytes, corpus.expected))) > 64
    loop = ClosedLoop(deployment, corpus, depth=16)
    loop.round_trips(200)
    assert (loop.sent, loop.done, loop.ok, loop.failed) == (200, 200, 200, 0)
    self_check(deployment, corpus, depth=16)  # all-wrong expectations are all flagged

    one_wrong = list(corpus.expected)
    one_wrong[5] = b"\x08\x00" + one_wrong[5]
    loop = ClosedLoop(deployment, Corpus(corpus.frames, one_wrong), depth=4)
    loop.round_trips(192)
    assert loop.failed == 1


def test_non_ok_status_and_silence_count_as_failures(baseline):
    _deployment, corpus = baseline

    class Wire:
        """A server that answers the first request with an error and
        never answers the second."""

        def __init__(self):
            self.replies = [encode_response(0, StatusCode.INTERNAL, corpus.expected[0])]

        def send(self, _frame):
            return None

        def recv(self, _n):
            return self.replies.pop() if self.replies else b""

    class Silent:
        kind, socket, drive = "fake", Wire(), staticmethod(lambda: None)

    loop = ClosedLoop(Silent, corpus, depth=2)
    loop.top_up()
    loop.collect()
    assert loop.drain(timeout_s=0.05) == 1  # one still unanswered
    assert (loop.sent, loop.ok, loop.failed) == (2, 0, 2)


def test_same_seed_same_traffic_other_seed_other_traffic():
    schema, service = compile_service()
    first = build_corpus(schema, service, ("SumInts",), seed=3)
    again = build_corpus(schema, service, ("SumInts",), seed=3)
    other = build_corpus(schema, service, ("SumInts",), seed=4)
    assert first.frames == again.frames and first.expected == again.expected
    assert first.frames != other.frames


# -- comparison ---------------------------------------------------------------


def test_verdicts():
    tight_a = [100, 101, 99, 100, 100]
    assert compare.verdict(100, 100.5, tight_a, [100, 101, 100, 101, 100], "lower", 0.1) == "same"
    assert compare.verdict(100, 130, tight_a, [130, 131, 129, 130, 130], "lower", 0.1) == "worse"
    assert compare.verdict(100, 70, tight_a, [70, 71, 69, 70, 70], "lower", 0.1) == "better"
    assert compare.verdict(100, 130, tight_a, [130, 131, 129, 130, 130], "higher", 0.1) == "better"
    assert compare.verdict(100, 104, tight_a, [104, 105, 103, 104, 104], "lower", 0.1) == "same"
    wide = [80, 125, 100, 130, 70]
    assert compare.verdict(100, 105, wide, [85, 130, 105, 135, 75], "lower", 0.1) == "unresolved"
    assert compare.verdict(80.0, 80.2, [], [], "lower", 0.1) == "same"  # one value per run
    assert compare.verdict(80.0, 95.0, [], [], "lower", 0.1) == "worse"


def _suite(**workloads):
    return {"workloads": {name: {"end_to_end": entry} for name, entry in workloads.items()}}


def _passed(value: float, failed: int = 0) -> dict:
    metrics = {m.name: {"value": value, "unit": m.unit} for m in spec.END_TO_END}
    return {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics,
            "segments": {}}


def test_a_pass_without_a_result_is_a_regression_not_a_gap(tmp_path, capsys):
    crashed = {"correct": False, "error": "hung: killed after 72 s"}
    healthy = _suite(small_offload=_passed(100.0), mix_baseline=_passed(100.0))
    broken = _suite(small_offload=crashed, mix_baseline=_passed(100.0))
    table = compare.rows(healthy, broken)
    assert table[0][:2] == ("small_offload", "ran") and table[0][-1] == "worse"
    assert len(table) == 1 + len(spec.END_TO_END)
    assert compare.rows(broken, healthy)[0][-1] == "better"  # B repaired it
    assert compare.rows(broken, broken)[0][-1] == "worse"  # still broken
    # a workload only one side ran at all
    assert compare.rows(healthy, _suite(mix_baseline=_passed(100.0)))[0][-1] == "worse"
    assert compare.rows(_suite(), healthy)[0][-1] == "better"
    # wrong answers on B alone
    assert compare.rows(healthy, _suite(small_offload=_passed(100.0, failed=3)))[-2][-1] == "worse"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(healthy))
    b.write_text(json.dumps(broken))
    assert compare.main(str(a), str(b)) == 1
    assert "small_offload" in capsys.readouterr().out
    assert compare.main(str(a), str(a)) == 0


# -- the declaration ----------------------------------------------------------


def test_benchmark_json_declares_what_the_harness_measures():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "-m", "benchmarks.e2e"]
    assert declared["run_seconds"] == spec.DEFAULT_SECONDS
    assert declared["workloads"] == [{"name": w.name, "why": w.why} for w in spec.WORKLOADS]
    assert len(spec.WORKLOADS) == 7
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER]
    assert any(m.name == "setup_s" and m.bound == max(x.bound for x in spec.END_TO_END)
               for m in spec.END_TO_END)


def test_smoke_suite_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run([sys.executable, "-m", "benchmarks.e2e", "--smoke", "--json", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == [w.name for w in spec.WORKLOADS]
    for name, entry in suite["workloads"].items():
        assert list(entry["end_to_end"]["metrics"]) == [m.name for m in spec.END_TO_END], name
        assert list(entry["per_layer"]["metrics"]) == [m.name for m in spec.PER_LAYER], name
        for passed in entry.values():
            assert passed["correct"] and passed["failed"] == 0 and passed["attempted"] > 0
        layers = {k: v["value"] for k, v in entry["per_layer"]["metrics"].items()}
        assert layers["xrpc.dpu_frontend.fallback_share"] == 0
        assert layers["runtime.procs.fallback_requests"] == 0
        assert layers["error_share"] == 0
    assert not [n for n in (pathlib.Path("/dev/shm").iterdir() if pathlib.Path("/dev/shm").exists()
                            else []) if n.name.startswith(f"repro-{deploy.PROCS_NAME}-")]
    # the result itself is a valid input of the comparison, and equals itself
    assert compare.main(str(out), str(out)) == 0
