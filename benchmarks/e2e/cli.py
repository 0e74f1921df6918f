"""Command line of the end-to-end benchmark.

Three uses::

    python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
        one pass of one workload (what the benchmark driver calls); the
        last line of output is the result object BENCHMARK.json promises.
    python3 -m benchmarks.e2e [--workload W ...] [--seed N] [--seconds S | --smoke]
                              [--no-trace] [--json PATH]
        the suite: for each workload the untraced pass, then the traced
        one; prints every metric by name with its unit.
    python3 -m benchmarks.e2e --compare A.json B.json
        two suite results side by side, judged against the bounds.

Every pass runs in a fresh subprocess under a watchdog.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from . import compare
from .deploy import leaked_segments
from .spec import (DEFAULT_SECONDS, END_TO_END, PER_LAYER, SETUP_SAMPLES, UNBOUNDED, WARMUP_S,
                   WORKLOADS)

__all__ = ["main", "run_pass", "WorkloadFailed"]

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: what a pass needs besides warm-up and window: interpreter start,
#: imports, set-up, request generation, drain, trace dump
_OVERHEAD_S = 12.0


class WorkloadFailed(RuntimeError):
    """A pass did not produce a result (crashed, hung, left litter)."""


def _stop_group(proc: subprocess.Popen) -> None:
    """Terminate the worker's whole session (it may have children),
    escalate, and wait until it has ended."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(grace)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait()
    for name in leaked_segments(proc.pid):  # a killed creator cannot unlink
        try:
            os.unlink(f"/dev/shm/{name}")
        except FileNotFoundError:
            pass


def _spawn_worker(args: list[str], budget_s: float) -> dict:
    """Run one worker to completion; kill it at 3x its budget."""
    cmd = [sys.executable, "-m", "benchmarks.e2e", "worker", *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=3 * budget_s)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise WorkloadFailed(f"hung: killed after {3 * budget_s:.0f} s") from None
    except BaseException:
        _stop_group(proc)
        raise
    if proc.returncode != 0:
        raise WorkloadFailed(f"worker exited with code {proc.returncode}")
    leaked = leaked_segments(proc.pid)
    if leaked:
        raise WorkloadFailed(f"shm segments left behind: {leaked}")
    return json.loads(out.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One pass of one workload.  Returns ``correct`` / ``attempted`` /
    ``failed`` / ``metrics`` (name -> {value, unit}) plus ``segments``
    (per-segment values, for the comparison) and ``detail``."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    budget = seconds + WARMUP_S + _OVERHEAD_S
    results = []
    if not trace:
        results = [_spawn_worker([*args, "--setup-only"], _OVERHEAD_S)
                   for _ in range(SETUP_SAMPLES - 1)]
    result = _spawn_worker(args, budget)
    results.append(result)
    setups = [r["setup_s"] for r in results]
    if trace:
        values = result["layers"]
        declared = PER_LAYER
        segments = {}
        detail = {"reference_rps": result["reference"]["rps"],
                  "traced_rps": result["traced"]["rps"],
                  "tail_quantile": result["reference"]["tail_quantile"],
                  "machine_speed": result["traced"]["mean_speed"],
                  "spans_written": result["spans_written"]}
    else:
        window = result["window"]
        values = dict(window, setup_s=statistics.median(setups),
                      error_share=result["failed"] / result["attempted"])
        declared = END_TO_END
        segments = dict(window["segments"], setup_s=setups)
        detail = {k: window[k] for k in ("speed", "raw", "tail_quantile", "samples",
                                         "rate_spread", "stable")}
        detail["raw"]["setup_s"] = statistics.median(r["raw_setup_s"] for r in results)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in declared},
        # end-to-end by nature, but carrying no bound: see README
        "unbounded": {} if trace else {m.name: {"value": values[m.name], "unit": m.unit}
                                       for m in UNBOUNDED},
        "segments": segments,
        "detail": detail,
    }


def _print_metrics(workload: str, passed: dict) -> None:
    """Every metric by name with its unit; time-based end-to-end values
    are at reference machine speed, so the wall-clock reading goes beside."""
    raw = passed["detail"].get("raw", {})
    for name, metric in (passed["metrics"] | passed["unbounded"]).items():
        wall = f"   (wall clock: {raw[name]:.4f})" if name in raw else ""
        print(f"{workload:22s} {name:50s} {metric['value']:14.4f} {metric['unit']}{wall}")
    print(f"{workload:22s} {'attempted / failed':50s} "
          f"{passed['attempted']:9d} / {passed['failed']}   {passed['detail']}")


def _run_suite(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    suite = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        entry = suite["workloads"][name] = {}
        for label, traced in (("end_to_end", False), ("per_layer", True)):
            if traced and not trace:
                continue
            try:
                entry[label] = run_pass(name, seed, seconds, traced)
            except WorkloadFailed as exc:
                # Reported, not fatal: the other workloads still run.
                entry[label] = {"correct": False, "error": str(exc)}
                print(f"{name:22s} {label} FAILED: {exc}")
                continue
            _print_metrics(name, entry[label])
    return suite


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["worker"]:
        from .worker import main as worker_main

        return worker_main(argv[1:])
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured window of each pass")
    parser.add_argument("--smoke", action="store_true", help="1 s windows")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run exactly one pass of one workload and end with its result object")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced passes")
    parser.add_argument("--json", metavar="PATH", help="suite: also write the results here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # A terminated benchmark must still stop what it started.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if args.compare:
        return compare.main(*args.compare)
    seconds = 1.0 if args.smoke else args.seconds
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        try:
            passed = run_pass(args.workload[0], args.seed, seconds, bool(args.trace))
        except WorkloadFailed as exc:
            sys.stderr.write(f"{args.workload[0]}: {exc}\n")
            return 1
        _print_metrics(args.workload[0], passed)
        print(json.dumps({k: passed[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    suite = _run_suite(args.workload or names, args.seed, seconds, not args.no_trace)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(suite, indent=1) + "\n")
    passes = [p for w in suite["workloads"].values() for p in w.values()]
    return 0 if all(p["correct"] for p in passes) else 1
