"""Command-line interface: regenerate the paper's results and run the
code generator from a shell.

::

    python -m repro table1                     # Table I
    python -m repro fig7                       # Fig. 7 model curves
    python -m repro fig8 [--workload NAME]     # Fig. 8 datapath cells
    python -m repro workloads                  # message size accounting
    python -m repro protoc FILE [--adt] [-o DIR]
    python -m repro codegen FILE [-o DIR]      # generated codecs + WIRE_FIXED report
    python -m repro faults [--seed N] [--scenarios N]   # fault campaign
    python -m repro trace [--deployment D] [-o FILE]    # Perfetto trace
    python -m repro top [--batches N] [--live]          # stage latency table / live dashboard
    python -m repro metrics [--deployment D]            # Prometheus scrape
"""

from __future__ import annotations

import argparse
import pathlib
import sys

__all__ = ["main"]


def _cmd_table1(args) -> int:
    from repro.sim import render_table1

    print(render_table1())
    return 0


def _cmd_fig7(args) -> int:
    from repro.sim import DEFAULT_COST_MODEL, Core

    m = DEFAULT_COST_MODEL
    counts = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    print(f"{'n':>6} {'int CPU ns':>11} {'int DPU ns':>11} {'char CPU ns':>12} {'char DPU ns':>12}")
    for n in counts:
        print(
            f"{n:>6} {m.int_array_ns(n, Core.HOST_X86):>11.1f} "
            f"{m.int_array_ns(n, Core.DPU_ARM):>11.1f} "
            f"{m.char_array_ns(n, Core.HOST_X86):>12.1f} "
            f"{m.char_array_ns(n, Core.DPU_ARM):>12.1f}"
        )
    return 0


_WORKLOADS = None


def _workload_map():
    global _WORKLOADS
    if _WORKLOADS is None:
        from repro.workloads import SMALL, X128_INTS, X512_INTS, X8000_CHARS

        _WORKLOADS = {
            "small": SMALL,
            "ints": X512_INTS,
            "ints128": X128_INTS,
            "chars": X8000_CHARS,
        }
    return _WORKLOADS


def _cmd_fig8(args) -> int:
    from repro.sim import DatapathSimulator, Scenario, WorkloadProfile

    profiles = []
    if args.mix:
        from repro.workloads import FLEET_MIX

        profiles.append(WorkloadProfile.measure_mix(FLEET_MIX))
    else:
        names = [args.workload] if args.workload else ["small", "ints", "chars"]
        profiles.extend(WorkloadProfile.measure(_workload_map()[n]) for n in names)
    for profile in profiles:
        print(
            f"{profile.spec.name}: wire {profile.serialized_size} B -> "
            f"object {profile.object_size} B"
        )
        for scenario in Scenario:
            result = DatapathSimulator(profile, scenario).run()
            print(
                f"  {result.summary()}  "
                f"[p50={result.latency_p50_s * 1e6:.0f}us stable={result.stable}]"
            )
    return 0


def _cmd_workloads(args) -> int:
    from repro.sim import WorkloadProfile

    print(f"{'workload':<14} {'wire B':>8} {'object B':>9} {'obj/wire':>9} "
          f"{'varints':>8} {'utf8 B':>8}")
    for spec in _workload_map().values():
        p = WorkloadProfile.measure(spec)
        print(
            f"{p.spec.name:<14} {p.serialized_size:>8} {p.object_size:>9} "
            f"{p.compression_ratio:>9.2f} {p.stats.varints_decoded:>8} "
            f"{p.stats.utf8_bytes_validated:>8}"
        )
    return 0


def _cmd_protoc(args) -> int:
    from repro.proto.codegen import protoc

    path = pathlib.Path(args.file)
    source = path.read_text()
    artifacts = protoc(source, path.name, with_adt=args.adt)
    stem = path.stem
    outdir = pathlib.Path(args.output) if args.output else path.parent
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, text in artifacts.items():
        out_path = outdir / f"{stem}_{kind}.py"
        out_path.write_text(text)
        written.append(str(out_path))
    print("\n".join(written))
    return 0


def _cmd_codegen(args) -> int:
    from repro.proto import compile_schema, fixed_eligibility, specs_of_descriptor
    from repro.proto.gen_codec import generate_codec_module

    path = pathlib.Path(args.file)
    source = path.read_text()
    module_source = generate_codec_module(source, path.name)
    outdir = pathlib.Path(args.output) if args.output else path.parent
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / f"{path.stem}_codec.py"
    out_path.write_text(module_source)
    print(out_path)

    schema = compile_schema(source)
    print("\nWIRE_FIXED eligibility:")
    for desc in schema.messages():
        ok, reasons = fixed_eligibility(specs_of_descriptor(desc))
        if ok:
            print(f"  {desc.full_name}: eligible")
        else:
            print(f"  {desc.full_name}: ineligible")
            for reason in reasons:
                print(f"    - {reason}")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import run_campaign

    deployments = (
        ("core", "offloaded") if args.deployment == "both" else (args.deployment,)
    )
    on_result = (lambda r: print(r.render())) if args.verbose else None
    report = run_campaign(
        base_seed=args.seed,
        scenarios=args.scenarios,
        deployments=deployments,
        verify_every=args.verify_every,
        on_result=on_result,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    import json

    from repro.obs.perfetto import validate_trace_events, write_trace

    if args.check:
        doc = json.loads(pathlib.Path(args.check).read_text())
        problems = validate_trace_events(doc)
        if problems:
            for p in problems:
                print(f"invalid: {p}", file=sys.stderr)
            return 1
        n = len(doc["traceEvents"]) if isinstance(doc, dict) else len(doc)
        print(f"{args.check}: valid ({n} events)")
        return 0

    from repro.obs.runner import run_traced_workload

    res = run_traced_workload(
        deployment=args.deployment,
        requests=args.requests,
        explicit_context=args.explicit_context,
        keep_slowest=args.slowest,
        transport=args.transport,
    )
    doc = res.trace_events()
    problems = validate_trace_events(doc)
    if problems:
        for p in problems:
            print(f"exporter bug: {p}", file=sys.stderr)
        return 1
    if args.output:
        write_trace(args.output, doc)
        print(f"wrote {args.output}: {len(doc['traceEvents'])} events, "
              f"{len(res.sampled)} sampled of {len(res.timelines)} timelines")
    else:
        print(json.dumps(doc, indent=1))
    slowest = res.slowest()
    if slowest is not None:
        print(slowest.render(), file=sys.stderr)
    print(res.latency.table(), file=sys.stderr)
    return 0 if res.errors == 0 else 1


def _open_loop_config(args):
    from repro.workloads.openloop import OpenLoopConfig

    return OpenLoopConfig(
        seed=args.seed,
        ticks=args.ticks,
        offered_per_tick=args.offered,
        capacity_per_tick=args.capacity,
        bulk_fraction=args.bulk_fraction,
    )


def _top_live(args) -> int:
    from repro.obs.slo import (
        KIND_GOODPUT,
        KIND_LANE_P99,
        KIND_MISS_RATE,
        AnomalyDetector,
        SloSpec,
        SloTracker,
    )
    from repro.obs.telemetry import TelemetryHub, render_dashboard
    from repro.runtime.overload import LANE_LATENCY, LANE_NAMES
    from repro.workloads.openloop import run_open_loop

    config = _open_loop_config(args)
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    hub = None

    def observer(collector):
        nonlocal hub
        # Every window: the hub seals it, the SLO tracker judges it
        # (latency-lane p99, a goodput floor of 80 % of what the
        # offered load can sustain, deadline misses; each may burn a
        # quarter of its windows), and the dashboard redraws.
        hub = TelemetryHub(collector, window_ticks=args.window)
        floor = 0.8 * min(config.offered_per_tick, float(config.capacity_per_tick))
        slo = SloTracker(
            [
                SloSpec("latency_p99", KIND_LANE_P99, 2_500.0,
                        lane=LANE_LATENCY, budget=0.25),
                SloSpec("goodput_floor", KIND_GOODPUT, floor, budget=0.25),
                SloSpec("deadline_miss", KIND_MISS_RATE, 0.05, budget=0.25),
            ],
            recorder=collector.recorder("slo"),
            anomaly=AnomalyDetector(),
        )
        hub.add_listener(slo.observe)

        def redraw(snapshot) -> None:
            frame = render_dashboard(hub, slo=slo, lane_names=LANE_NAMES)
            print(f"{clear}{frame}", flush=True)

        hub.add_listener(redraw)
        return hub.on_tick

    res = run_open_loop(config, observer=observer)
    print(
        f"done: {res.total_completed} completed over {res.ticks} "
        f"ticks, {hub.windows_closed} windows", file=sys.stderr,
    )
    return 0


def _cmd_top(args) -> int:
    if args.live:
        return _top_live(args)
    from repro.metrics import MetricsRegistry
    from repro.obs.runner import run_traced_workload
    from repro.obs.timeline import StageLatencyExporter, TailSampler

    registry = MetricsRegistry()
    latency = StageLatencyExporter(registry)
    # Streaming tail sampling across batches: each batch is a fresh
    # collector (its own epoch), so retained outliers age out instead of
    # squatting in the slowest-N list with incomparable timestamps.
    sampler = TailSampler(keep_slowest=10, keep_epochs=1)
    errors = 0
    for batch in range(args.batches):
        res = run_traced_workload(
            deployment=args.deployment, requests=args.requests_per_batch,
            transport=args.transport,
        )
        latency.observe(res.timelines)
        sampler.retain(res.timelines, epoch=batch)
        errors += res.errors
        print(f"batch {batch + 1}/{args.batches}: "
              f"{res.requests - res.errors}/{res.requests} ok", file=sys.stderr)
    print(latency.table())
    print(
        f"tail sample: {len(sampler.retained())} retained "
        f"({sampler.evicted} evicted across {args.batches} epochs)",
        file=sys.stderr,
    )
    return 0 if errors == 0 else 1


def _cmd_metrics(args) -> int:
    from repro.obs.runner import run_traced_workload

    res = run_traced_workload(deployment=args.deployment, requests=args.requests,
                              transport=args.transport)
    print(res.registry.expose(), end="")
    return 0 if res.errors == 0 else 1


def _add_openloop_args(subparser) -> None:
    subparser.add_argument("--seed", type=int, default=2024,
                           help="arrival-process seed (default 2024)")
    subparser.add_argument("--ticks", type=int, default=1500,
                           help="event-loop ticks to drive (default 1500)")
    subparser.add_argument("--offered", type=float, default=1.6,
                           help="mean arrivals per tick (default 1.6)")
    subparser.add_argument("--capacity", type=int, default=2,
                           help="front-end forward budget per tick (default 2)")
    subparser.add_argument("--bulk-fraction", type=float, default=0.7,
                           help="fraction of arrivals on the bulk lane")
    subparser.add_argument("--window", type=int, default=50,
                           help="telemetry window in ticks (default 50)")


def _add_transport_arg(subparser) -> None:
    subparser.add_argument(
        "--transport", choices=["inproc", "shm"], default=None,
        help="fabric backend for the datapath (docs/TRANSPORT.md); default "
        "inproc, except the procs deployment which is always shm",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Protocol Buffer Deserialization DPU "
        "Offloading in the RPC Datapath' (SC 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(fn=_cmd_table1)
    sub.add_parser("fig7", help="print the Fig. 7 model curves").set_defaults(fn=_cmd_fig7)

    fig8 = sub.add_parser("fig8", help="run the Fig. 8 datapath cells")
    fig8.add_argument("--workload", choices=["small", "ints", "ints128", "chars"])
    fig8.add_argument("--mix", action="store_true",
                      help="run the fleet-shaped traffic mix instead")
    fig8.set_defaults(fn=_cmd_fig8)

    sub.add_parser("workloads", help="message size accounting").set_defaults(
        fn=_cmd_workloads
    )

    pc = sub.add_parser("protoc", help="compile a .proto file to Python modules")
    pc.add_argument("file", help=".proto source file")
    pc.add_argument("--adt", action="store_true",
                    help="also run the ADT plugin (.adt.pb analog)")
    pc.add_argument("-o", "--output", help="output directory (default: alongside input)")
    pc.set_defaults(fn=_cmd_protoc)

    cg = sub.add_parser(
        "codegen",
        help="emit per-type generated codec sources for a .proto file and "
        "report WIRE_FIXED eligibility (docs/DECODER.md)",
    )
    cg.add_argument("file", help=".proto source file")
    cg.add_argument("-o", "--output", help="output directory (default: alongside input)")
    cg.set_defaults(fn=_cmd_codegen)

    faults = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign (docs/FAULTS.md)",
    )
    faults.add_argument("--seed", type=int, default=0, help="campaign base seed")
    faults.add_argument(
        "--scenarios", type=int, default=200, help="number of scenarios (default 200)"
    )
    faults.add_argument(
        "--deployment",
        choices=["core", "offloaded", "overload", "both"],
        default="both",
        help="which deployment(s) to break ('both' keeps its historical "
        "meaning of core+offloaded; 'overload' runs the open-loop "
        "overload-control scenarios, docs/OVERLOAD.md)",
    )
    faults.add_argument(
        "--verify-every",
        type=int,
        default=0,
        metavar="K",
        help="re-run every K-th scenario and require identical fingerprints",
    )
    faults.add_argument(
        "--verbose", action="store_true", help="print every scenario verdict"
    )
    faults.set_defaults(fn=_cmd_faults)

    trace = sub.add_parser(
        "trace",
        help="run a traced workload and export a Perfetto trace "
        "(docs/OBSERVABILITY.md)",
    )
    trace.add_argument(
        "--deployment", choices=["offloaded", "core", "procs"], default="offloaded",
        help="which datapath to trace (default: offloaded; procs = the "
        "3-OS-process shm deployment)",
    )
    _add_transport_arg(trace)
    trace.add_argument("--requests", type=int, default=60,
                       help="requests to push through (default 60)")
    trace.add_argument("-o", "--output", help="write Perfetto JSON here "
                       "(default: print to stdout)")
    trace.add_argument(
        "--explicit-context", action="store_true",
        help="carry an 8-byte trace-context word on the wire instead of "
        "deriving ids from transmit order",
    )
    trace.add_argument("--slowest", type=int, default=10,
                       help="tail-sample size: keep the N slowest requests")
    trace.add_argument("--check", metavar="FILE",
                       help="validate an existing trace file and exit")
    trace.set_defaults(fn=_cmd_trace)

    top = sub.add_parser(
        "top", help="aggregate per-stage latency quantiles over several runs, "
        "or watch a live telemetry dashboard (--live)"
    )
    top.add_argument("--deployment", choices=["offloaded", "core", "procs"],
                     default="offloaded")
    _add_transport_arg(top)
    top.add_argument("--batches", type=int, default=3,
                     help="number of traced runs to aggregate (default 3)")
    top.add_argument("--requests-per-batch", type=int, default=40,
                     help="requests per run (default 40)")
    top.add_argument(
        "--live", action="store_true",
        help="drive the open-loop workload and refresh a telemetry "
        "dashboard every window (lane and stage tables, SLO burn gauges — "
        "docs/OBSERVABILITY.md)",
    )
    _add_openloop_args(top)
    top.set_defaults(fn=_cmd_top)

    metrics = sub.add_parser(
        "metrics",
        help="run a traced workload and dump the Prometheus exposition",
    )
    metrics.add_argument("--deployment", choices=["offloaded", "core", "procs"],
                         default="offloaded")
    metrics.add_argument("--requests", type=int, default=60)
    _add_transport_arg(metrics)
    metrics.set_defaults(fn=_cmd_metrics)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
