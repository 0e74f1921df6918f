"""The paper's synthetic benchmark messages (§VI-C.1).

Three messages, each stressing a different axis of the datapath:

* **Small** — a 15-byte message of assorted fields; the common RPC case,
  bounded by per-message datapath efficiency.
* **x512 Ints** — a packed ``repeated uint32`` array; varint decoding is
  the dominant cost (high compute).  Element values follow the paper's
  non-uniform distribution: smaller integers are more likely, so encoded
  lengths span 1–5 bytes, data accesses are unaligned, and different
  instruction paths execute.  (The paper's §VI-C.4 also reports an
  "x128 int" variant; the element count is a parameter here.)
* **x8000 Chars** — an 8 000-character string; a single big copy plus
  UTF-8 validation (high copy cost), serialized size 8 003 bytes.

All generators use a Mersenne-Twister generator with a constant seed for
reproducibility, like the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.proto import CompiledSchema, Message, compile_schema, serialize

__all__ = [
    "WORKLOAD_PROTO",
    "WorkloadSpec",
    "workload_schema",
    "WorkloadFactory",
    "bench_service",
    "SMALL",
    "X512_INTS",
    "X128_INTS",
    "X8000_CHARS",
    "STANDARD_WORKLOADS",
]

WORKLOAD_PROTO = """
syntax = "proto3";
package bench;

// "Small": 15 bytes serialized, 40-byte C++ object.
message Small {
  uint32 id = 1;       // 4-byte varint
  uint32 flags = 2;    // 1-byte varint
  uint64 payload = 3;  // 5-byte varint
  bool ok = 4;
}

// "xN Ints": packed varint array, compute-bound deserialization.
message IntArray {
  repeated uint32 values = 1;
}

// "xN Chars": one large string, copy-bound deserialization.
message CharArray {
  string data = 1;
}

// Response used by datapath benchmarks (the business logic is empty and
// answers with an empty message, §VI-C).
message Empty {}
"""

_BENCH_SERVICE_PROTO = """
service Bench {
  rpc PingSmall (Small) returns (Empty);
  rpc SumInts (IntArray) returns (IntArray);
  rpc Upper (CharArray) returns (CharArray);
}
"""

_SEED = 0x5EED  # constant, like the paper's reproducible MT seed


@dataclass(frozen=True)
class WorkloadSpec:
    """Names one benchmark message shape."""

    name: str
    type_name: str
    element_count: int  # ints or chars; 0 for Small

    def describe(self) -> str:
        return f"{self.name} ({self.type_name}, n={self.element_count})"


SMALL = WorkloadSpec("Small", "bench.Small", 0)
X512_INTS = WorkloadSpec("x512 Ints", "bench.IntArray", 512)
X128_INTS = WorkloadSpec("x128 Ints", "bench.IntArray", 128)
X8000_CHARS = WorkloadSpec("x8000 Chars", "bench.CharArray", 8000)

#: The Fig. 8 trio.
STANDARD_WORKLOADS = [SMALL, X512_INTS, X8000_CHARS]


def workload_schema() -> CompiledSchema:
    return compile_schema(WORKLOAD_PROTO)


# Probability of a uint32 element needing 1..5 varint bytes.  Skewed small
# (the paper: "integers are more likely to be smaller"); mean ≈ 1.94
# encoded bytes/element, reproducing the reported 2.06× varint compression
# of the int array within a few percent.
_VARINT_LEN_WEIGHTS = np.array([0.45, 0.30, 0.15, 0.07, 0.03])
_VARINT_LEN_BOUNDS = [(0, 7), (7, 14), (14, 21), (21, 28), (28, 32)]


class WorkloadFactory:
    """Builds reproducible message instances and their wire bytes."""

    def __init__(self, seed: int = _SEED, schema: CompiledSchema | None = None) -> None:
        self.schema = schema or workload_schema()
        self.rng = np.random.Generator(np.random.MT19937(seed))

    # -- element generators -----------------------------------------------------

    def int_elements(self, count: int) -> np.ndarray:
        """Random uint32s with the skewed varint-length distribution."""
        lengths = self.rng.choice(5, size=count, p=_VARINT_LEN_WEIGHTS)
        out = np.empty(count, dtype=np.uint64)
        for i, li in enumerate(lengths):
            lo_bits, hi_bits = _VARINT_LEN_BOUNDS[li]
            lo = 1 << lo_bits if lo_bits else 1
            hi = (1 << hi_bits) - 1
            out[i] = self.rng.integers(lo, max(lo + 1, hi), dtype=np.uint64)
        return out.astype(np.uint32)

    def char_data(self, count: int) -> str:
        """Random single-byte (ASCII) characters, uncompressed on the
        wire: one byte per element."""
        codes = self.rng.integers(0x20, 0x7F, size=count, dtype=np.uint8)
        return codes.tobytes().decode("ascii")

    # -- message builders ----------------------------------------------------------

    def small(self) -> Message:
        cls = self.schema["bench.Small"]
        return cls(
            id=int(self.rng.integers(1 << 21, 1 << 27)),  # 4-byte varint
            flags=int(self.rng.integers(1, 127)),  # 1-byte varint
            payload=int(self.rng.integers(1 << 28, 1 << 34)),  # 5-byte varint
            ok=True,
        )

    def int_array(self, count: int = 512) -> Message:
        cls = self.schema["bench.IntArray"]
        return cls(values=[int(v) for v in self.int_elements(count)])

    def char_array(self, count: int = 8000) -> Message:
        cls = self.schema["bench.CharArray"]
        return cls(data=self.char_data(count))

    def build(self, spec: WorkloadSpec) -> Message:
        if spec.type_name == "bench.Small":
            return self.small()
        if spec.type_name == "bench.IntArray":
            return self.int_array(spec.element_count)
        if spec.type_name == "bench.CharArray":
            return self.char_array(spec.element_count)
        raise ValueError(f"unknown workload {spec}")

    def build_wire(self, spec: WorkloadSpec) -> tuple[Message, bytes]:
        msg = self.build(spec)
        return msg, serialize(msg)


def bench_service():
    """The three messages behind one service, and a servicer for it:
    ``(schema, service, servicer)``, ready for :func:`repro.deploy.build`
    (the traced runner and the cross-deployment test serve this one)."""
    schema = compile_schema(WORKLOAD_PROTO + _BENCH_SERVICE_PROTO)
    Empty = schema["bench.Empty"]
    IntArray = schema["bench.IntArray"]
    CharArray = schema["bench.CharArray"]

    class BenchServicer:
        def PingSmall(self, request, context):
            return Empty()

        def SumInts(self, request, context):
            values = list(request.values)
            values.append(sum(values) % (1 << 32))
            return IntArray(values=values)

        def Upper(self, request, context):
            return CharArray(data=request.data.upper())

    return schema, schema.service("bench.Bench"), BenchServicer()
