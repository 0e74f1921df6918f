"""Overload-control benchmark: goodput and tail latency vs offered load.

Sweeps the open-loop workload (``repro.workloads.openloop``) across
offered loads from half capacity to twice capacity over the offloaded
deployment, in two configurations:

* **controlled** — queue-depth admission control at the DPU front door,
  priority lanes and per-call deadlines;
* **uncontrolled** — the same traffic with admission off and no lanes
  on the wire, the divergence baseline.

All time is the deterministic manual clock (one tick = one event-loop
pass = 100 simulated µs), so the sweep is exactly reproducible and the
percentiles are noise-free.  Results land in ``BENCH_overload.json`` at
the repo root (consumed by the CI ``overload-smoke`` job), keyed by
normalized load: goodput per tick, shed rate, and per-lane p50/p99.

Gates (docs/OVERLOAD.md#benchmark):

* goodput at 2.0× offered load stays ≥ 80 % of goodput at 1.0× — the
  controlled datapath must not collapse past saturation;
* the latency lane's p99 at 2.0× (controlled) stays within 3× its
  uncontended (0.5×) value, while the uncontrolled 2.0× p99 diverges.
"""

from __future__ import annotations

import json
import pathlib

from repro.runtime.overload import QueueDepthAdmission
from repro.workloads.openloop import OpenLoopConfig, run_open_loop

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_overload.json"

SEED = 2024
TICKS = 1_500
CAPACITY = 2  # front-end forward budget per tick
TIMEOUT_US = 60_000
LOADS = (0.5, 1.0, 1.5, 2.0)


def _config(load: float, controlled: bool) -> OpenLoopConfig:
    return OpenLoopConfig(
        seed=SEED,
        ticks=TICKS,
        offered_per_tick=load * CAPACITY,
        capacity_per_tick=CAPACITY,
        bulk_fraction=0.7,
        timeout_us=TIMEOUT_US,
        # Uncontrolled = the pre-overload-control datapath: one FIFO, no
        # priority lanes on the wire (deadlines stay on so the sweep's
        # drain phase terminates; expiry is counted, not goodput).
        use_lanes=controlled,
    )


def run_point(load: float, controlled: bool) -> dict:
    """One sweep point; identical seeded traffic either way."""
    admission = QueueDepthAdmission(max_depth=24) if controlled else None
    result = run_open_loop(_config(load, controlled), admission=admission)
    row = result.summary()
    row["load"] = load
    row["controlled"] = controlled
    return row


def test_overload_sweep(report):
    controlled = {load: run_point(load, True) for load in LOADS}
    uncontrolled = {load: run_point(load, False) for load in LOADS}
    payload = {
        "seed": SEED,
        "ticks": TICKS,
        "capacity_per_tick": CAPACITY,
        "timeout_us": TIMEOUT_US,
        "controlled": {str(k): v for k, v in controlled.items()},
        "uncontrolled": {str(k): v for k, v in uncontrolled.items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"{'load':>5} {'mode':<12} {'goodput/tick':>12} {'shed %':>7} "
        f"{'lat p99 µs':>11} {'bulk p99 µs':>12}"
    ]
    for load in LOADS:
        for mode, rows in (("controlled", controlled), ("uncontrolled", uncontrolled)):
            row = rows[load]
            lines.append(
                f"{load:>5.1f} {mode:<12} {row['goodput_per_tick']:>12.3f} "
                f"{row['shed_rate'] * 100:>7.1f} "
                f"{row['p99_us']['latency']:>11.0f} "
                f"{row['p99_us']['bulk']:>12.0f}"
            )
    lines.append(f"persisted to {BENCH_JSON}")
    report("overload_sweep", "\n".join(lines))

    # -- gates (docs/OVERLOAD.md#benchmark) -------------------------------
    # 1. Goodput holds past saturation with the controller on.
    goodput_1x = controlled[1.0]["goodput_per_tick"]
    goodput_2x = controlled[2.0]["goodput_per_tick"]
    assert goodput_2x >= 0.8 * goodput_1x, (goodput_2x, goodput_1x)
    # 2. The latency lane's tail stays bounded under 2x overload...
    uncontended_p99 = controlled[0.5]["p99_us"]["latency"]
    overloaded_p99 = controlled[2.0]["p99_us"]["latency"]
    assert overloaded_p99 <= 3 * uncontended_p99, (overloaded_p99, uncontended_p99)
    # ...while the uncontrolled baseline diverges (unbounded queueing).
    uncontrolled_p99 = uncontrolled[2.0]["p99_us"]["latency"]
    assert uncontrolled_p99 > 3 * uncontended_p99, (uncontrolled_p99, uncontended_p99)
    # 3. Under overload the controller sheds bulk, not the latency lane.
    assert controlled[2.0]["shed"]["bulk"] > 0
    shed = controlled[2.0]["shed"]
    completed = controlled[2.0]["completed"]
    lat_total = shed["latency"] + completed["latency"]
    bulk_total = shed["bulk"] + completed["bulk"]
    assert shed["latency"] / lat_total <= shed["bulk"] / bulk_total
    # 4. Every offered request was answered — served, shed, or typed drop.
    for rows in (controlled, uncontrolled):
        for row in rows.values():
            assert row["unanswered"] == 0, row
