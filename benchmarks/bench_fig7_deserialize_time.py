"""Figure 7 — time to deserialize a single message vs element count.

Two outputs:

* the **modeled** curves (int array & char array on CPU and DPU) from the
  calibrated cost model, which is what reproduces the figure's ns axis;
* **real** pytest-benchmark timings of our Python arena deserializer on
  the same messages — the implementation-regression numbers (absolute
  values are Python's, shapes must match: chars ≪ ints per element,
  linear growth).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, TypeUniverse
from repro.proto import parse, serialize
from repro.sim import DEFAULT_COST_MODEL, Core
from repro.workloads import WorkloadFactory

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_fig7.json"


def merge_bench_json(update: dict) -> dict:
    """Read-modify-write ``BENCH_fig7.json``: the decode and encode
    benchmarks each own their keys, and neither may clobber the other's."""
    merged: dict = {}
    if BENCH_JSON.exists():
        try:
            merged = json.loads(BENCH_JSON.read_text())
        except ValueError:
            merged = {}
    merged.update(update)
    BENCH_JSON.write_text(json.dumps(merged, indent=2) + "\n")
    return merged

COUNTS = [1, 4, 16, 64, 256, 1024, 4096]
ARENA_BASE = 0x10_0000
ARENA_SIZE = 1 << 24


def _deser_env():
    factory = WorkloadFactory()
    space = AddressSpace("bench")
    space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
    universe = TypeUniverse(space)
    adt = universe.build_adt(
        [
            factory.schema.pool.message("bench.IntArray"),
            factory.schema.pool.message("bench.CharArray"),
        ]
    )
    return factory, space, ArenaDeserializer(adt)


def test_fig7_model_curves(report, benchmark):
    m = DEFAULT_COST_MODEL
    lines = [
        f"{'n':>6} {'int CPU ns':>12} {'int DPU ns':>12} "
        f"{'char CPU ns':>12} {'char DPU ns':>12}"
    ]
    for n in COUNTS:
        lines.append(
            f"{n:>6} {m.int_array_ns(n, Core.HOST_X86):>12.1f} "
            f"{m.int_array_ns(n, Core.DPU_ARM):>12.1f} "
            f"{m.char_array_ns(n, Core.HOST_X86):>12.1f} "
            f"{m.char_array_ns(n, Core.DPU_ARM):>12.1f}"
        )
    ratio_i = m.int_array_ns(4096, Core.DPU_ARM) / m.int_array_ns(4096, Core.HOST_X86)
    ratio_c = m.char_array_ns(32768, Core.DPU_ARM) / m.char_array_ns(32768, Core.HOST_X86)
    lines.append(f"asymptotic DPU/CPU ratio: ints {ratio_i:.2f}x (paper 1.89x), "
                 f"chars {ratio_c:.2f}x (paper 2.51x)")
    report("fig7_deserialize_time", "\n".join(lines))
    benchmark.pedantic(
        lambda: [m.int_array_ns(n, Core.DPU_ARM) for n in COUNTS], rounds=1
    )
    assert ratio_i == pytest.approx(1.89, rel=0.05)
    assert ratio_c == pytest.approx(2.51, rel=0.05)


@pytest.mark.parametrize("count", [16, 256, 4096])
def test_bench_int_array_deserialize(benchmark, count):
    factory, space, deser = _deser_env()
    wire = serialize(factory.int_array(count))
    idx = deser.adt.index_of("bench.IntArray")

    def run():
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        deser.deserialize(idx, wire, arena)

    benchmark.group = f"fig7-int-array"
    benchmark(run)


@pytest.mark.parametrize("count", [16, 256, 4096])
def test_bench_char_array_deserialize(benchmark, count):
    factory, space, deser = _deser_env()
    wire = serialize(factory.char_array(count))
    idx = deser.adt.index_of("bench.CharArray")

    def run():
        arena = Arena(space, ARENA_BASE, ARENA_SIZE)
        deser.deserialize(idx, wire, arena)

    benchmark.group = f"fig7-char-array"
    benchmark(run)


def test_fig7_decode_speedup(report, benchmark):
    """Both codec tiers — the interpretive oracle and the generated
    per-type codecs — plus the negotiated WIRE_FIXED branchless wire, on
    the paper's standard workload mix (Small, x512 Ints, x8000 Chars).

    Times the reference deserializer and the arena deserializer in both
    decode modes, persists the numbers to ``BENCH_fig7.json`` at the repo
    root (consumed by the CI codec-smoke job), and asserts the headline
    claims: generated codecs >=2x over interpretive and the fixed wire
    faster still (both on the reference mix), the arena tiers at parity.
    """
    factory = WorkloadFactory()
    workloads = {
        "small": factory.small(),
        "x512_ints": factory.int_array(512),
        "x8000_chars": factory.char_array(8000),
    }
    wires = {name: serialize(msg) for name, msg in workloads.items()}
    classes = {name: type(msg) for name, msg in workloads.items()}

    def time_reference(mode: str, reps: int = 300) -> dict[str, float]:
        out = {}
        for name, wire in wires.items():
            cls = classes[name]
            parse(cls, wire, mode=mode)  # warm the codec cache
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    parse(cls, wire, mode=mode)
                best = min(best, (time.perf_counter_ns() - t0) / reps)
            out[name] = best
        out["mix"] = sum(out[name] for name in wires)
        return out

    def time_fixed_reference(reps: int = 300) -> dict[str, float]:
        """The branchless wire: one struct unpack + slot application.
        Every bench workload is fixed-layout eligible."""
        from repro.proto import get_fixed_layout

        out = {}
        for name, msg in workloads.items():
            cls = classes[name]
            layout = get_fixed_layout(cls.DESCRIPTOR, factory.schema.factory)
            assert layout is not None, f"{name} must be fixed-eligible"
            wire = layout.encode(msg)
            layout.parse(cls, wire)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    layout.parse(cls, wire)
                best = min(best, (time.perf_counter_ns() - t0) / reps)
            out[name] = best
        out["mix"] = sum(out[name] for name in wires)
        return out

    def _arena_env():
        space = AddressSpace("bench-tiers")
        space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
        universe = TypeUniverse(space)
        adt = universe.build_adt(
            [factory.schema.pool.message(f"bench.{n}") for n in
             ("Small", "IntArray", "CharArray")]
        )
        return space, adt

    _ROOTS = (
        ("small", "bench.Small"),
        ("x512_ints", "bench.IntArray"),
        ("x8000_chars", "bench.CharArray"),
    )

    def time_arena(mode: str, reps: int = 300) -> dict[str, float]:
        space, adt = _arena_env()
        deser = ArenaDeserializer(adt, mode=mode)
        out = {}
        for name, root in _ROOTS:
            wire = wires[name]
            idx = deser.adt.index_of(root)
            deser.deserialize(idx, wire, Arena(space, ARENA_BASE, ARENA_SIZE))
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    deser.deserialize(idx, wire, Arena(space, ARENA_BASE, ARENA_SIZE))
                best = min(best, (time.perf_counter_ns() - t0) / reps)
            out[name] = best
        out["mix"] = sum(out[n] for n in wires)
        return out

    def time_fixed_arena(reps: int = 300) -> dict[str, float]:
        from repro.proto import get_fixed_layout

        space, adt = _arena_env()
        deser = ArenaDeserializer(adt)
        out = {}
        for name, root in _ROOTS:
            cls = classes[name]
            layout = get_fixed_layout(cls.DESCRIPTOR, factory.schema.factory)
            wire = layout.encode(workloads[name])
            idx = deser.adt.index_of(root)
            deser.deserialize_fixed(idx, wire, Arena(space, ARENA_BASE, ARENA_SIZE))
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    deser.deserialize_fixed(
                        idx, wire, Arena(space, ARENA_BASE, ARENA_SIZE)
                    )
                best = min(best, (time.perf_counter_ns() - t0) / reps)
            out[name] = best
        out["mix"] = sum(out[n] for n in wires)
        return out

    ref_gen = benchmark.pedantic(lambda: time_reference("generated"), rounds=1)
    ref_interp = time_reference("interpretive")
    ref_fixed = time_fixed_reference()
    arena_gen = time_arena("generated")
    arena_interp = time_arena("interpretive")
    arena_fixed = time_fixed_arena()

    results = {
        "units": "ns/op",
        "reference": {"interpretive": ref_interp, "generated": ref_gen},
        "arena": {"interpretive": arena_interp, "generated": arena_gen},
        "wire_fixed": {"reference": ref_fixed, "arena": arena_fixed},
        "reference_mix_speedup": ref_interp["mix"] / ref_gen["mix"],
        "arena_mix_speedup": arena_interp["mix"] / arena_gen["mix"],
        "wire_fixed_mix_speedup": ref_gen["mix"] / ref_fixed["mix"],
    }
    merge_bench_json(results)

    lines = [f"{'workload':<12} {'ref interp':>12} {'ref gen':>10} {'ref fixed':>10}"
             f" {'arena interp':>13} {'arena gen':>10} {'arena fixed':>12}"]
    for name in (*wires, "mix"):
        lines.append(
            f"{name:<12} {ref_interp[name]:>12,.0f} {ref_gen[name]:>10,.0f} "
            f"{ref_fixed[name]:>10,.0f} {arena_interp[name]:>13,.0f} "
            f"{arena_gen[name]:>10,.0f} {arena_fixed[name]:>12,.0f}"
        )
    lines.append(
        f"mix speedups: gen/interp {results['reference_mix_speedup']:.2f}x, "
        f"arena gen/interp {results['arena_mix_speedup']:.2f}x, "
        f"fixed/gen {results['wire_fixed_mix_speedup']:.2f}x"
    )
    lines.append(f"persisted to {BENCH_JSON}")
    report("fig7_decode_tiers", "\n".join(lines))

    assert results["reference_mix_speedup"] >= 2.0, (
        f"generated codecs must be >=2x on the workload mix, got "
        f"{results['reference_mix_speedup']:.2f}x"
    )
    # The branchless wire has no tags or varints to decode at all.
    assert ref_fixed["mix"] < ref_gen["mix"], (
        f"WIRE_FIXED must beat the generated tag-wire decoder, got "
        f"{ref_fixed['mix']:.0f} vs {ref_gen['mix']:.0f} ns/op"
    )
    # The bar on the arena side is parity, not 2x: both arena tiers share
    # the packed-varint kernel and the composite writers.  (The oracle
    # converts a packed run element by element through the hand-written
    # rule, so on x512 Ints it reads several times slower than that.)
    assert results["arena_mix_speedup"] >= 0.8


def test_fig7_shape_chars_faster_than_ints(report, benchmark):
    """Fig. 7's qualitative claim measured on OUR implementation: for the
    same element count, the char array deserializes faster than the int
    array (single memcpy vs per-element varint decode)."""
    import time

    factory, space, deser = _deser_env()
    n = 4096
    int_wire = serialize(factory.int_array(n))
    chr_wire = serialize(factory.char_array(n))
    int_idx = deser.adt.index_of("bench.IntArray")
    chr_idx = deser.adt.index_of("bench.CharArray")

    def timeit(idx, wire, reps=200):
        t0 = time.perf_counter()
        for _ in range(reps):
            deser.deserialize(idx, wire, Arena(space, ARENA_BASE, ARENA_SIZE))
        return (time.perf_counter() - t0) / reps * 1e9

    t_int = benchmark.pedantic(lambda: timeit(int_idx, int_wire), rounds=1)
    t_chr = timeit(chr_idx, chr_wire)
    report(
        "fig7_shape_check",
        f"our implementation @ n={n}: ints {t_int:,.0f} ns, chars {t_chr:,.0f} ns "
        f"(chars/ints = {t_chr / t_int:.2f}; paper's figure has chars well below ints)",
    )
    assert t_chr < t_int
