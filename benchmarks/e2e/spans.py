"""In-memory span recorder and the patching that installs it.

A span is ``(id, name, start_ns, end_ns, parent id, k)`` where ``k`` is
the call's ordinal among spans of that name.  The traced window starts
with the pipeline drained and runs over one connection with reliable-
connection ordering, so at every per-request boundary the k-th call is
the k-th request sent — that is the request identifier, at zero cost.

Self time (duration minus the part child spans cover) is folded into
per-name totals as each span closes, so an arbitrarily long window costs
constant memory; the raw spans go to a capped ring that is written out
as JSON lines when the run ends.

Wrappers are installed on the objects the benchmark built (or, for
module-level functions and ``FrameDecoder``, on the importing module /
the class) and always removed again by :meth:`SpanRecorder.restore`.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque

__all__ = ["SpanRecorder", "is_wrapped"]

_MISSING = object()
_MARK = "__e2e_span__"


def is_wrapped(fn) -> bool:
    """Whether ``fn`` was installed by :meth:`SpanRecorder.patch`."""
    return getattr(fn, _MARK, None) is not None


class SpanRecorder:
    def __init__(self, ring: int = 1 << 15, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        #: name -> [self_ns, total_ns, calls]
        self.stats: dict[str, list[int]] = {}
        self.ring: deque = deque(maxlen=ring)
        #: gated wrappers (installed at build time) only record while set
        self.active = False
        # Open spans, innermost last: [child_ns, id].  The sentinel at the
        # bottom is every top-level span's parent (id -1).
        self._stack: list[list[int]] = [[0, -1]]
        self._new_id = itertools.count().__next__
        self._patches: list[tuple] = []  # (obj, attr, previous own value)

    # -- recording ------------------------------------------------------------

    def timed(self, name: str, fn, gated: bool = False):
        """Wrap ``fn`` so each call is one span named ``name``.  A
        ``gated`` wrapper passes straight through while the recorder is
        inactive — for hooks that must be installed when the deployment
        is built rather than when the traced window opens."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stack = self._stack
        clock = self.clock
        new_id = self._new_id
        record = self.ring.append

        def wrapper(*args, **kwargs):
            if gated and not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0, new_id()]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                del stack[-1]
                duration = end - start
                parent[0] += duration
                stat[0] += duration - frame[0]
                stat[1] += duration
                k = stat[2]
                stat[2] = k + 1
                record((frame[1], name, start, end, parent[1], k))

        return wrapper

    def timed_generator(self, name: str, genfn):
        """Wrap a generator function: every resumption of the generator
        is one span, the consumer's loop body between resumptions is not
        (it belongs to the consumer)."""

        def wrapper(*args, **kwargs):
            step = self.timed(name, iter(genfn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, obj, attr: str, make_wrapper) -> None:
        """Replace ``obj.attr`` with ``make_wrapper(current value)``.
        Works on instances (shadowing the class attribute), classes and
        modules alike; :meth:`restore` undoes it exactly."""
        current = getattr(obj, attr)
        if is_wrapped(current):
            raise RuntimeError(f"{obj!r}.{attr} is already wrapped")
        wrapper = make_wrapper(current)
        setattr(wrapper, _MARK, attr)
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, wrapper)

    def wrap(self, obj, attr: str, name: str) -> None:
        self.patch(obj, attr, lambda fn: self.timed(name, fn))

    def restore(self) -> None:
        while self._patches:
            obj, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- results --------------------------------------------------------------

    def self_ns(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_ns(self, name: str) -> int:
        return self.stats[name][1] if name in self.stats else 0

    def calls(self, name: str) -> int:
        return self.stats[name][2] if name in self.stats else 0

    def dump(self, path) -> int:
        """Write the ring as JSON lines; returns the spans written."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, k in self.ring:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "k": k}))
                out.write("\n")
        return len(self.ring)
