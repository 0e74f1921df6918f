"""The benchmark's own service: schema, servicer, request corpus.

The servicer lives here, not in ``src/``, so responses are small except
where the response path is the subject (``GenInts``).  Each method is a
*read* of the request followed by a *build* of the response; the traced
servicer brackets the two halves, the plain one just composes them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.proto import compile_schema, parse, serialize
from repro.workloads import WORKLOAD_PROTO, WorkloadFactory
from repro.xrpc.framing import encode_request

__all__ = ["SERVICE_NAME", "Corpus", "compile_service", "make_servicer",
           "build_corpus", "patch_call_id", "REQUESTS_PER_SHAPE"]

SERVICE_NAME = "bench.E2e"
REQUESTS_PER_SHAPE = 64

_SERVICE_PROTO = """
service E2e {
  rpc PingSmall (Small) returns (Empty);
  rpc SumInts (IntArray) returns (Small);
  rpc CountChars (CharArray) returns (Small);
  rpc GenInts (Small) returns (IntArray);
}
"""

#: GenInts' fixed answer: 512 values spread over all five varint lengths.
_GEN_INTS = [(i * 2654435761 & 0xFFFFFFFF) >> (i % 5 * 7) for i in range(1, 513)]

_CALL_ID = struct.Struct("<I")  # at byte 1 of every frame (xrpc.framing._HEADER)


def compile_service():
    """``(schema, service descriptor)`` for ``bench.E2e``."""
    schema = compile_schema(WORKLOAD_PROTO + _SERVICE_PROTO)
    return schema, schema.service(SERVICE_NAME)


def _halves(schema) -> dict:
    """method -> (read(request) -> values, build(values) -> response)."""
    Empty = schema["bench.Empty"]
    Small = schema["bench.Small"]
    IntArray = schema["bench.IntArray"]

    def read_small(r):
        return r.id, r.flags, r.payload, r.ok

    def read_ints(r):
        values = r.values
        return sum(values) & 0xFFFFFFFF, len(values)

    def read_chars(r):
        data = r.data
        return len(data), ord(data[0]) if data else 0

    def build_empty(_values):
        return Empty()

    def build_small(values):
        return Small(id=values[0], flags=values[1])

    def build_ints(_values):
        return IntArray(values=_GEN_INTS)

    return {
        "PingSmall": (read_small, build_empty),
        "SumInts": (read_ints, build_small),
        "CountChars": (read_chars, build_small),
        "GenInts": (read_small, build_ints),
    }


def make_servicer(schema, recorder=None, read_span: str = ""):
    """The ``bench.E2e`` servicer.  With a ``recorder`` every method
    brackets its field reads (as ``read_span``) and its response
    construction (as ``proto.message.build``); without one the methods
    carry no instrumentation at all."""

    def plain(read, build):
        return lambda self, request, context: build(read(request))

    def traced(read, build):
        read = recorder.timed(read_span, read, gated=True)
        build = recorder.timed("proto.message.build", build, gated=True)
        return lambda self, request, context: build(read(request))

    compose = plain if recorder is None else traced
    methods = {name: compose(*halves) for name, halves in _halves(schema).items()}
    return type("E2eServicer", (), methods)()


@dataclass
class Corpus:
    """Pre-generated traffic: request frames (mutable, so the call id can
    be patched in place) and the expected response payload of each."""

    frames: list[bytearray]
    expected: list[bytes]


def build_corpus(schema, service, methods: tuple[str, ...], seed: int) -> Corpus:
    """64 distinct requests per method from ``WorkloadFactory(seed)``,
    interleaved round-robin (so the first ``len(methods)`` frames cover
    every method), framed once.  Expected payloads come from
    running the plain servicer on the *parsed wire bytes* and serializing
    with the interpretive encoder — the reference path, independent of
    whichever codec tier the deployment uses."""
    factory = WorkloadFactory(seed=seed, schema=schema)
    servicer = make_servicer(schema)
    generate = {
        "bench.Small": factory.small,
        "bench.IntArray": lambda: factory.int_array(512),
        "bench.CharArray": lambda: factory.char_array(8000),
    }
    by_name = {m.name: m for m in service.methods}
    per_method = []
    for name in methods:
        method = by_name[name]
        request_cls = schema[method.input_type.full_name]
        path = f"/{SERVICE_NAME}/{name}"
        rows = []
        for _ in range(REQUESTS_PER_SHAPE):
            wire = serialize(generate[method.input_type.full_name]())
            response = getattr(servicer, name)(parse(request_cls, wire), None)
            rows.append((bytearray(encode_request(0, path, wire)),
                         serialize(response, mode="interpretive")))
        per_method.append(rows)
    frames, expected = [], []
    for group in zip(*per_method):
        for frame, payload in group:
            frames.append(frame)
            expected.append(payload)
    return Corpus(frames, expected)


def patch_call_id(frame: bytearray, call_id: int) -> None:
    _CALL_ID.pack_into(frame, 1, call_id & 0xFFFFFFFF)
