"""The yardstick: how fast is this machine *right now*?

The box this runs on changes speed by a factor of up to 1.6 for tens of
seconds at a time (a neighbour on the sibling hyperthread): whole 10 s
windows land in one state or the other, and no median over segments can
average that away.  So the driver interleaves the measured segments with
short bursts of a fixed piece of interpreter work and divides the
machine's momentary speed out of every time-based metric.  What is
reported is the rate (or time) *at reference machine speed*.

The kernel below never changes with the code under test — it touches
nothing from ``repro`` — and mixes what the datapath mixes: method calls
with keyword arguments, attribute and dict traffic, ``struct`` packing,
buffer slicing, small allocations.  (A pure arithmetic loop slows down
~9 % more than the datapath when the sibling thread is busy; this mix
tracks it to ~2 %.)
"""

from __future__ import annotations

import struct
import time

__all__ = ["speed", "REFERENCE_RATE"]

#: The unit: this many kernel iterations make one *reference second*.
#: Any value would do for comparing two commits; this one is the rate of
#: the box the benchmark was built on when nothing disturbs it, so that
#: normalised numbers read like an undisturbed run there.
REFERENCE_RATE = 5500.0

_HEADER = struct.Struct("<BIBH")


class _Cell:
    __slots__ = ("acc", "table")

    def __init__(self) -> None:
        self.acc = 1
        self.table: dict[int, int] = {}

    def step(self, x: int, y: int = 0) -> int:
        self.acc = (self.acc + x + y) & 0xFFFF
        return self.acc


def _kernel() -> int:
    cell = _Cell()
    table = cell.table
    step = cell.step
    buf = bytearray(256)
    out: list = []
    for i in range(200):
        v = step(i, y=i)
        table[v & 63] = i
        _HEADER.pack_into(buf, i & 127, 1, v, 2, 3)
        fields = _HEADER.unpack_from(buf, i & 127)
        out.append(bytes(buf[i & 63:(i & 63) + 16]))
        if table.get(i & 63) is None:
            out.append(fields)
        out.append([i, v, (i, v)])
        out.append({"k": i})
    return len(out)


def speed(duration_s: float = 0.06) -> float:
    """Run the kernel for about ``duration_s``; return the machine's
    speed relative to the reference (1.0 = reference, 0.6 = the same
    work takes 1/0.6 as long)."""
    clock = time.perf_counter
    start = clock()
    iterations = 0
    while True:
        _kernel()
        iterations += 1
        now = clock()
        if now - start >= duration_s:
            return iterations / (now - start) / REFERENCE_RATE
