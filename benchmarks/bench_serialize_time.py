"""Encode-side twin of the Figure 7 benchmark: generated encoders vs the
interpretive serializer on the paper's standard workload mix.

The paper observes that serialization "can be offloaded with similar
techniques" (§III-A); this benchmark quantifies the host-side win of the
generated encoder the same way ``bench_fig7_deserialize_time.py``
does for the decoder, and persists the numbers into the same
``BENCH_fig7.json`` (merged — neither side clobbers the other's keys).
"""

from __future__ import annotations

import time

import pytest

from repro.proto import ENCODE_PLAN_METRICS, serialize, serialize_into, serialized_size
from repro.workloads import WorkloadFactory

from bench_fig7_deserialize_time import BENCH_JSON, merge_bench_json

MODES = ("generated", "interpretive")


def _workloads():
    factory = WorkloadFactory()
    return {
        "small": factory.small(),
        "x512_ints": factory.int_array(512),
        "x8000_chars": factory.char_array(8000),
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", ["small", "x512_ints", "x8000_chars"])
def test_bench_serialize(benchmark, workload, mode):
    msg = _workloads()[workload]
    serialize(msg, mode=mode)  # warm the codec cache
    benchmark.group = f"fig7-serialize-{workload}"
    benchmark(lambda: serialize(msg, mode=mode))


def test_fig7_encode_speedup(report, benchmark):
    """Times both encode modes on the workload mix, persists ns/op and the
    copies-avoided count to ``BENCH_fig7.json``, and asserts the headline
    claim: the generated encoder is at least 3x faster than the
    interpretive one on the mix."""
    workloads = _workloads()

    def time_mode(mode: str, reps: int = 300) -> dict[str, float]:
        out = {}
        for name, msg in workloads.items():
            serialize(msg, mode=mode)  # warm caches
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    serialize(msg, mode=mode)
                best = min(best, (time.perf_counter_ns() - t0) / reps)
            out[name] = best
        out["mix"] = sum(out[name] for name in workloads)
        return out

    gen = benchmark.pedantic(lambda: time_mode("generated"), rounds=1)
    interp = time_mode("interpretive")

    # Zero-copy accounting: emit each workload once directly into a
    # preallocated destination and count the avoided materializations.
    ENCODE_PLAN_METRICS.reset()
    for msg in workloads.values():
        buf = bytearray(serialized_size(msg))
        serialize_into(msg, buf, mode="generated")
    copies_avoided = ENCODE_PLAN_METRICS.copies_avoided

    results = merge_bench_json(
        {
            "encode": {"interpretive": interp, "generated": gen},
            "encode_mix_speedup": interp["mix"] / gen["mix"],
            "encode_copies_avoided_per_mix": copies_avoided,
        }
    )

    lines = [f"{'workload':<12} {'interpretive':>13} {'generated':>10} {'speedup':>8}"]
    for name in (*workloads, "mix"):
        lines.append(
            f"{name:<12} {interp[name]:>13,.0f} {gen[name]:>10,.0f} "
            f"{interp[name] / gen[name]:>7.2f}x"
        )
    lines.append(f"copies avoided (one serialize_into per workload): {copies_avoided}")
    lines.append(f"persisted to {BENCH_JSON}")
    report("fig7_encode_tiers", "\n".join(lines))

    assert copies_avoided == len(workloads)
    assert results["encode_mix_speedup"] >= 3.0, (
        f"generated encoders must be >=3x on the workload mix, got "
        f"{results['encode_mix_speedup']:.2f}x"
    )
