"""Shared fixtures: schemas and message builders used across test modules."""

from __future__ import annotations

import os

import pytest

from repro.proto import CompiledSchema, compile_schema

# A schema exercising every field kind the system supports.
KITCHEN_SINK_PROTO = """
syntax = "proto3";
package test;

enum Color {
  COLOR_UNSPECIFIED = 0;
  RED = 1;
  BLUE = 2;
}

message Leaf {
  int32 id = 1;
  string label = 2;
}

message Node {
  uint64 key = 1;
  Leaf leaf = 2;
  repeated Node children = 3;
}

message Everything {
  double f_double = 1;
  float f_float = 2;
  int32 f_int32 = 3;
  int64 f_int64 = 4;
  uint32 f_uint32 = 5;
  uint64 f_uint64 = 6;
  sint32 f_sint32 = 7;
  sint64 f_sint64 = 8;
  fixed32 f_fixed32 = 9;
  fixed64 f_fixed64 = 10;
  sfixed32 f_sfixed32 = 11;
  sfixed64 f_sfixed64 = 12;
  bool f_bool = 13;
  string f_string = 14;
  bytes f_bytes = 15;
  Color f_color = 16;
  Leaf f_leaf = 17;
  repeated uint32 r_uint32 = 18;
  repeated string r_string = 19;
  repeated Leaf r_leaf = 20;
  repeated sint64 r_sint64 = 21;
  repeated double r_double = 22;
  oneof choice {
    string choice_s = 23;
    uint32 choice_u = 24;
  }
}
"""

# The paper's three benchmark messages (§VI-C.1).
PAPER_WORKLOAD_PROTO = """
syntax = "proto3";
package bench;

// "Small": a 15-byte message of various fields (the common RPC case).
message Small {
  uint32 id = 1;
  uint32 flags = 2;
  bool ok = 3;
  string tag = 4;
}

// "x512 Ints": varint-decode-heavy.
message IntArray {
  repeated uint32 values = 1;
}

// "x8000 Chars": copy-heavy.
message CharArray {
  string data = 1;
}
"""


@pytest.fixture(scope="session")
def kitchen_schema() -> CompiledSchema:
    return compile_schema(KITCHEN_SINK_PROTO)


@pytest.fixture(scope="session")
def bench_schema() -> CompiledSchema:
    return compile_schema(PAPER_WORKLOAD_PROTO)


@pytest.fixture(scope="session")
def everything_cls(kitchen_schema):
    return kitchen_schema["test.Everything"]


@pytest.fixture(scope="session")
def node_cls(kitchen_schema):
    return kitchen_schema["test.Node"]


@pytest.fixture(scope="session")
def leaf_cls(kitchen_schema):
    return kitchen_schema["test.Leaf"]


def build_everything(cls):
    """A fully populated Everything message used by round-trip tests."""
    m = cls(
        f_double=3.25,
        f_float=-1.5,
        f_int32=-42,
        f_int64=-(1 << 40),
        f_uint32=7,
        f_uint64=(1 << 63) + 5,
        f_sint32=-1000,
        f_sint64=-(1 << 45),
        f_fixed32=0xDEADBEEF,
        f_fixed64=0xFEEDFACECAFEBEEF,
        f_sfixed32=-12345,
        f_sfixed64=-(1 << 50),
        f_bool=True,
        f_string="héllo wörld",
        f_bytes=b"\x00\x01\xff",
        f_color=2,
        r_uint32=[1, 2, 3, 127, 128, 300000],
        r_string=["a", "", "ccc"],
        r_sint64=[-1, 0, 1, -(1 << 33)],
        r_double=[0.0, -2.5, 1e300],
        choice_u=99,
    )
    m.f_leaf.id = 5
    m.f_leaf.label = "leaf"
    l1 = m.r_leaf.add()
    l1.id = 1
    l2 = m.r_leaf.add()
    l2.id = 2
    l2.label = "two"
    return m


@pytest.fixture(scope="session")
def own_descriptors():
    """A function listing what this process holds open that a deployment
    could leak: every socket (``socket:[inode]``) and every ``/dev/shm``
    mapping.  Compare the set before a build with the set after close."""

    def snapshot() -> set[str]:
        links = set()
        for fd in os.listdir("/proc/self/fd"):
            try:
                link = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue  # the listing's own descriptor
            if link.startswith(("socket:", "/dev/shm/")):
                links.add(link)
        return links

    return snapshot
