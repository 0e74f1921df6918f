"""Production-like RPC traffic mixes.

The paper motivates its batching design with fleet measurements: "nearly
90% of analyzed messages are 512 bytes or less" (§IV, citing the
Accelerometer study and the protobuf-accelerator paper), and its §VI-C
discussion contrasts its synthetic trio with Google's benchmark suite of
"huge messages with deeply nested structures".  This module provides
both:

* :class:`TraceMix` — a weighted mixture of message shapes whose
  serialized-size distribution matches the cited fleet shape (default:
  ~90% ≤ 512 B, a tail of KB-range arrays and blobs);
* :func:`deeply_nested` — the Google-suite-style stress message
  (configurable depth/fan-out), exercising the deserializer's recursion
  and the per-message ADT walk.

Profiles derived from a mix feed the datapath simulator through
:meth:`repro.sim.WorkloadProfile.blend`, modeling steady-state traffic
that interleaves small and large messages in the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.proto import CompiledSchema, Message, compile_schema, serialize

from .messages import WorkloadFactory, WorkloadSpec, workload_schema

__all__ = ["TraceComponent", "TraceMix", "FLEET_MIX", "NESTED_PROTO", "deeply_nested"]


@dataclass(frozen=True)
class TraceComponent:
    """One message shape in a mix."""

    spec: WorkloadSpec
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class TraceMix:
    """A weighted mixture of message shapes."""

    name: str
    components: tuple[TraceComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mix needs at least one component")

    @property
    def weights(self) -> np.ndarray:
        w = np.array([c.weight for c in self.components], dtype=float)
        return w / w.sum()

    def sample(self, factory: WorkloadFactory, count: int) -> list[Message]:
        """Draw ``count`` messages i.i.d. from the mix (factory's RNG)."""
        idx = factory.rng.choice(len(self.components), size=count, p=self.weights)
        return [factory.build(self.components[i].spec) for i in idx]

    def small_fraction(self, factory: WorkloadFactory, cutoff: int = 512) -> float:
        """Fraction of 400 sampled messages serializing to <= ``cutoff``
        bytes (the fleet statistic the mix is calibrated against)."""
        msgs = self.sample(factory, 400)
        small = sum(1 for m in msgs if len(serialize(m)) <= cutoff)
        return small / len(msgs)


#: A fleet-shaped default mix: ~90% of messages at or under 512 B
#: (15-byte smalls plus sub-512B arrays), with a tail of KB-range
#: payloads.
FLEET_MIX = TraceMix(
    name="fleet",
    components=(
        TraceComponent(WorkloadSpec("tiny", "bench.Small", 0), 0.55),
        TraceComponent(WorkloadSpec("ints64", "bench.IntArray", 64), 0.20),
        TraceComponent(WorkloadSpec("chars256", "bench.CharArray", 256), 0.15),
        TraceComponent(WorkloadSpec("ints512", "bench.IntArray", 512), 0.05),
        TraceComponent(WorkloadSpec("chars4k", "bench.CharArray", 4096), 0.05),
    ),
)


NESTED_PROTO = """
syntax = "proto3";
package nested;

// The "huge messages with deeply nested structures" shape of Google's
// protobuf benchmark suite (paper §VI-C.1).
message Node {
  uint64 id = 1;
  string label = 2;
  repeated uint32 weights = 3;
  double score = 4;
  bool active = 5;
  repeated Node children = 6;
}
"""


def nested_schema() -> CompiledSchema:
    return compile_schema(NESTED_PROTO)


def deeply_nested(
    depth: int = 5,
    fanout: int = 3,
    weights_per_node: int = 8,
    schema: CompiledSchema | None = None,
    factory: WorkloadFactory | None = None,
) -> Message:
    """Build a tree-shaped message: ``fanout``^``depth`` leaves, every
    node carrying scalars, a string, and a packed array."""
    schema = schema or nested_schema()
    factory = factory or WorkloadFactory(schema=workload_schema())
    Node = schema["nested.Node"]
    counter = [0]

    def build(level: int) -> Message:
        counter[0] += 1
        node = Node(
            id=counter[0],
            label=f"node-{counter[0]}-{'x' * (counter[0] % 20)}",
            weights=[int(v) for v in factory.int_elements(weights_per_node)],
            score=counter[0] / 7.0,
            active=bool(counter[0] % 2),
        )
        if level < depth:
            for _ in range(fanout):
                node.children.append(build(level + 1))
        return node

    return build(1)
