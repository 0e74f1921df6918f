"""Chrome/Perfetto ``trace_event`` JSON export.

Turns stitched request timelines into the Trace Event Format that
``ui.perfetto.dev`` (and ``chrome://tracing``) load directly:

* each *component* becomes a named thread (``M`` metadata events), so
  the UI shows one swim-lane per datapath layer;
* timed stages (dispatch, deserialize, callback) become complete ``X``
  events with real durations;
* instant stages become ``i`` events on their component's lane;
* each request becomes an async ``b``/``e`` pair spanning its first to
  last stage, so the whole request reads as one bracket across lanes.

Timestamps are microseconds (the format's unit).  The module also ships
:func:`validate_trace_events` — the structural checker the CI trace
smoke job runs against exported files (well-formed JSON, monotonic
sorted timestamps, matched async begin/end pairs).
"""

from __future__ import annotations

import json

__all__ = ["to_trace_events", "write_trace", "validate_trace_events"]

_PID = 1


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_trace_events(timelines, global_events=()) -> dict:
    """Build the ``{"traceEvents": [...]}`` document."""
    components: dict[str, int] = {}

    def lane(component: str) -> int:
        tid = components.get(component)
        if tid is None:
            tid = len(components) + 1
            components[component] = tid
        return tid

    events: list[dict] = []
    for seq, tl in enumerate(timelines):
        args = {"trace_id": str(tl.tid)}
        args.update({k: str(v) for k, v in tl.attrs().items()})
        first_lane = lane(tl.events[0].component)
        events.append({
            "name": f"request {tl.tid}", "cat": "request", "ph": "b",
            "id": seq, "ts": _us(tl.start), "pid": _PID, "tid": first_lane,
            "args": args,
        })
        for ev in tl.events:
            base = {
                "name": ev.stage, "cat": "stage", "ts": _us(ev.ts),
                "pid": _PID, "tid": lane(ev.component),
                "args": {"trace_id": str(tl.tid),
                         **{k: str(v) for k, v in (ev.attrs or {}).items()}},
            }
            if ev.dur:
                base["ph"] = "X"
                base["dur"] = _us(ev.dur)
            else:
                base["ph"] = "i"
                base["s"] = "t"
            events.append(base)
        events.append({
            "name": f"request {tl.tid}", "cat": "request", "ph": "e",
            "id": seq, "ts": _us(tl.end), "pid": _PID, "tid": first_lane,
        })
    for ev in global_events:
        events.append({
            "name": ev.stage, "cat": "global", "ph": "i", "s": "g",
            "ts": _us(ev.ts), "pid": _PID, "tid": lane(ev.component),
            "args": {k: str(v) for k, v in (ev.attrs or {}).items()},
        })
    events.sort(key=lambda e: e["ts"])
    meta = [{
        "name": "process_name", "ph": "M", "pid": _PID, "ts": 0,
        "args": {"name": "repro"},
    }]
    for component, tid in sorted(components.items(), key=lambda kv: kv[1]):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "ts": 0, "args": {"name": component},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_trace(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def validate_trace_events(doc) -> list[str]:
    """Structural validation of a trace_event document; returns the list
    of problems (empty = valid).  Checks the properties the CI smoke job
    asserts: well-formed shape, non-negative numeric timestamps that are
    monotonically non-decreasing over the data events, durations on
    ``X`` events only, and every async ``b`` matched by exactly one
    ``e`` with the same ``(cat, id)`` at a later-or-equal timestamp."""
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a traceEvents list"]
    last_ts = None
    opened: dict[tuple, float] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        if ph not in ("B", "E", "X", "i", "I", "b", "e", "n", "M", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
            continue
        if ph == "M":
            continue  # metadata carries no timeline semantics
        if last_ts is not None and ts < last_ts:
            errors.append(f"{where}: ts {ts} < previous {last_ts} (unsorted)")
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0, got {dur!r}")
        elif "dur" in ev:
            errors.append(f"{where}: dur on non-X phase {ph!r}")
        if ph == "b":
            key = (ev.get("cat"), ev.get("id"))
            if key in opened:
                errors.append(f"{where}: async begin {key} already open")
            opened[key] = ts
        elif ph == "e":
            key = (ev.get("cat"), ev.get("id"))
            begin = opened.pop(key, None)
            if begin is None:
                errors.append(f"{where}: async end {key} without begin")
            elif ts < begin:
                errors.append(f"{where}: async end {key} before its begin")
    for key in opened:
        errors.append(f"async begin {key} never ended")
    return errors
