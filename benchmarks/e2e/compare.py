"""Two suite results side by side, judged against the declared bounds.

One run per side resolves little on a shared box: the verdict column
says *unresolved* when it cannot tell, instead of guessing.  A claim
needs ten alternating pairs (README, choosing-metrics section 8).
"""

from __future__ import annotations

import json
import statistics

from .spec import END_TO_END

__all__ = ["main", "verdict", "rows"]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: float, b: float, a_segments: list[float], b_segments: list[float],
            better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for B against A.

    With per-segment values on both sides the interquartile ranges
    decide: apart, the medians' order is real — *better*, or *worse*
    once past the bound; overlapping, *same* if both ranges are tighter
    than the bound and *unresolved* if not.  A metric with one value per
    run (peak memory) is judged by the bound alone.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    if len(a_segments) < 2 or len(b_segments) < 2:
        return "worse" if worse_by > bound else "better" if worse_by < -bound else "same"
    (a1, a3), (b1, b3) = _quartiles(a_segments), _quartiles(b_segments)
    if a3 < b1 or b3 < a1:
        if worse_by < 0:
            return "better"
        return "worse" if worse_by > bound else "same"
    spread = max(a3 - a1, b3 - b1) / a
    return "unresolved" if spread > bound else "same"


def rows(a: dict, b: dict) -> list[tuple]:
    """(workload, metric, unit, a, b, delta, bound, verdict) for every
    end-to-end metric of every workload either result names.  A pass
    that produced no metrics (crashed, hung, left litter, not run) is a
    row of its own, *worse* unless it is only A's that is missing: a
    change that breaks a workload outright must not read as no regression."""
    out = []
    for workload in dict.fromkeys([*a["workloads"], *b["workloads"]]):
        a_pass = a["workloads"].get(workload, {}).get("end_to_end", {})
        b_pass = b["workloads"].get(workload, {}).get("end_to_end", {})
        a_ran, b_ran = "metrics" in a_pass, "metrics" in b_pass
        if not (a_ran and b_ran):
            out.append((workload, "ran", "bool", float(a_ran), float(b_ran),
                        0.0, 0.0, "better" if b_ran else "worse"))
            continue
        for metric in END_TO_END:
            va = a_pass["metrics"][metric.name]["value"]
            vb = b_pass["metrics"][metric.name]["value"]
            out.append((
                workload, metric.name, metric.unit, va, vb, (vb - va) / va, metric.bound,
                verdict(va, vb, a_pass["segments"].get(metric.name, []),
                        b_pass["segments"].get(metric.name, []), metric.better, metric.bound),
            ))
        if a_pass["failed"] or b_pass["failed"]:
            out.append((workload, "failed", "count", a_pass["failed"], b_pass["failed"],
                        0.0, 0.0, "worse" if b_pass["failed"] > a_pass["failed"] else "same"))
    return out


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        table = rows(json.load(fa), json.load(fb))
    print(f"{'workload':22s} {'metric':16s} {'A':>12s} {'B':>12s} {'delta':>8s} "
          f"{'bound':>6s}  verdict")
    for workload, metric, unit, va, vb, delta, bound, judged in table:
        print(f"{workload:22s} {metric:16s} {va:12.3f} {vb:12.3f} {delta:+8.1%} "
              f"{bound:6.0%}  {judged}   [{unit}]")
    return 1 if any(row[-1] == "worse" for row in table) else 0
