"""Differential testing: the two deployments must be observationally
identical.

For any request message, a client talking to the baseline server (host
terminates + deserializes) and a client talking to the offloaded server
(DPU terminates + deserializes, host sees objects) must receive the same
response.  This is the compatibility-layer contract (§III-A/§V-D) stated
as a property.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import build
from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, DeserializeError, TypeUniverse
from repro.proto import (
    DECODE_MODES,
    DecodeError,
    WireFormatError,
    compile_schema,
    parse,
    serialize,
)
from repro.proto.wire_format import MAX_NESTING_DEPTH
from repro.xrpc import (
    FrameDecoder,
    Network,
    StatusCode,
    XrpcChannel,
    XrpcServer,
    encode_request,
    make_stub_class,
)
from tests.conftest import KITCHEN_SINK_PROTO
from tests.integration.test_containment import nested
from tests.proto.test_codec_roundtrip import everything_strategy

SERVICE_SRC = KITCHEN_SINK_PROTO + """
message Digest {
  uint64 field_count = 1;
  uint64 numeric_sum = 2;
  string echo_string = 3;
  repeated uint32 echoed = 4;
}

service Probe {
  rpc Inspect (Everything) returns (Digest);
}
"""


def make_servicer(schema):
    Digest = schema["test.Digest"]

    class ProbeServicer:
        """Reads a representative spread of field kinds — works on parsed
        messages and zero-copy views alike."""

        def Inspect(self, request, context):
            numeric = (
                request.f_uint32
                + request.f_fixed32
                + (request.f_sint32 & 0xFFFFFFFF)
                + sum(request.r_uint32)
                + len(request.f_bytes)
                + (1 if request.f_bool else 0)
                # Unset submessage accessors return defaults on BOTH
                # representations (parsed message and zero-copy view).
                + request.f_leaf.id
            )
            field_count = sum(
                1 for leaf in request.r_leaf if leaf.label
            ) + len(request.r_string)
            return Digest(
                field_count=field_count,
                numeric_sum=numeric & ((1 << 64) - 1),
                echo_string=request.f_string,
                echoed=list(request.r_uint32)[:16],
            )

    return ProbeServicer()


@pytest.fixture(scope="module")
def deployments():
    schema = compile_schema(SERVICE_SRC)
    svc = schema.service("test.Probe")
    Stub = make_stub_class(svc, schema.factory)

    # Baseline.
    net_a = Network()
    baseline = XrpcServer(net_a, "h:1", schema.factory)
    baseline.add_service(svc, make_servicer(schema))
    chan_a = XrpcChannel(net_a, "h:1")
    chan_a.drive = baseline.progress

    with build("offloaded", schema, svc, make_servicer(schema)) as offloaded:
        yield schema, Stub(chan_a), Stub(offloaded.channel())


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_three_deployments_agree(self, deployments, data):
        """(The name predates the deployment that also offloaded the
        response's serialization; two deployments remain.)"""
        schema, baseline, offloaded = deployments
        cls = schema["test.Everything"]
        request = data.draw(everything_strategy(cls))
        assert baseline.Inspect(request) == offloaded.Inspect(request)

    def test_worked_example(self, deployments):
        schema, baseline, offloaded = deployments
        cls = schema["test.Everything"]
        request = cls(
            f_uint32=10, f_bool=True, f_string="différential",
            r_uint32=[1, 2, 3], r_string=["a", "b"], f_bytes=b"\x01\x02",
        )
        request.f_leaf.id = 5
        leaf = request.r_leaf.add()
        leaf.label = "counted"
        a = baseline.Inspect(request)
        assert a.echo_string == "différential"
        assert list(a.echoed) == [1, 2, 3]
        assert a == offloaded.Inspect(request)


# -- one raw frame, both deployments, both decode tiers -----------------------

OVERWIDE_SRC = """
syntax = "proto3";
package t;
message Z { sint32 a = 1; repeated sint32 r = 2; }
message Seen { sint64 a = 1; repeated sint64 r = 2; }
service S { rpc Put (Z) returns (Seen); }
"""
#: raw = 2**33 + 3 on a sint32 — singular, unpacked repeated, packed
OVERWIDE_PAYLOADS = {
    "singular": bytes.fromhex("088380808020"),
    "unpacked": bytes.fromhex("108380808020"),
    "packed": bytes.fromhex("12058380808020"),
}


def _answer_overwide(kind: str, decode_mode: str, payload: bytes) -> bytes:
    """The raw response bytes one deployment gives the over-wide frame;
    ``drive()`` raising fails the test that called this."""
    schema = compile_schema(OVERWIDE_SRC)
    Seen = schema["t.Seen"]

    class Servicer:
        def Put(self, request, context):
            return Seen(a=request.a, r=list(request.r))

    with build(kind, schema, schema.service("t.S"), Servicer()) as deployment:
        if kind == "baseline":
            deployment.front.decode_mode = decode_mode
        else:
            deployment.dpu.deserializer.mode = decode_mode
        socket = deployment.connect("overwide-client")
        socket.send(encode_request(1, "/t.S/Put", payload))
        raw = bytearray()
        for _ in range(200):
            deployment.drive()
            raw += socket.recv(1 << 16)
            if raw:
                return bytes(raw)
    raise AssertionError("no response")


@pytest.mark.parametrize("form", OVERWIDE_PAYLOADS)
def test_overwide_sint32_has_one_answer(form):
    """An over-wide ``sint32`` varint used to have three answers: -2 on
    the offloaded path, -4294967298 on the baseline's generated tier, and
    an escaped ``FieldValueError`` (a ``TypeError``) that took the
    baseline's event loop down on its interpretive tier.  Now both
    deployments, on both tiers, send the same bytes, and they say -2."""
    payload = OVERWIDE_PAYLOADS[form]
    answers = {
        (kind, mode): _answer_overwide(kind, mode, payload)
        for kind in ("baseline", "offloaded")
        for mode in DECODE_MODES
    }
    assert len(set(answers.values())) == 1, answers
    decoder = FrameDecoder()
    decoder.feed(answers["baseline", "generated"])
    (frame,) = decoder.frames()
    assert frame.status == StatusCode.OK
    seen = parse(compile_schema(OVERWIDE_SRC)["t.Seen"], frame.message)
    assert (seen.a, list(seen.r)) == ((-2, []) if form == "singular" else (0, [-2]))


# -- one nesting limit, four decoders -------------------------------------------

NESTED_SRC = """
syntax = "proto3";
package t;
message Node { uint32 v = 1; Node child = 2; repeated Node kids = 3; }
"""


@pytest.fixture(scope="module")
def four_decoders():
    """name -> ``decode(wire)`` returning how deep the message it built
    nests: both reference tiers, both arena tiers (each behind its size
    estimate, as ``DpuEngine.call`` runs it)."""
    schema = compile_schema(NESTED_SRC)
    Node = schema["t.Node"]
    space = AddressSpace("host")
    space.map(MemoryRegion(0x5000_0000, 1 << 22, "arena"))
    adt = TypeUniverse(space).build_adt([Node.DESCRIPTOR])

    def reference(mode):
        def decode(wire):
            node, depth = parse(Node, wire, mode=mode), 1
            while node.HasField("child") or len(node.kids):
                node, depth = (node.child if node.HasField("child") else node.kids[0]), depth + 1
            return depth
        return decode

    def arena(mode):
        deserializer = ArenaDeserializer(adt, mode=mode)

        def decode(wire):
            deserializer.stats.reset()
            size = deserializer.estimate_size(0, wire)
            deserializer.deserialize(0, wire, Arena(space, 0x5000_0000, size))
            return deserializer.stats.max_depth
        return decode

    return {**{f"reference-{m}": reference(m) for m in DECODE_MODES},
            **{f"arena-{m}": arena(m) for m in DECODE_MODES}}


@pytest.mark.parametrize("field", ["singular", "repeated"])
@pytest.mark.parametrize("depth", [1, MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1, 2000])
def test_nesting_has_one_limit(four_decoders, depth, field):
    """Depth 100 is accepted and depth 101 rejected — with the decoder's
    declared error, not a ``RecursionError`` that depends on how deep the
    interpreter stack already is at the call (the baseline used to take
    986 here, the offloaded stack 492)."""
    wire = nested(depth, b"\x12" if field == "singular" else b"\x1a")
    for name, decode in four_decoders.items():
        declared = DecodeError if name.startswith("reference") else DeserializeError
        assert issubclass(declared, WireFormatError)
        if depth <= MAX_NESTING_DEPTH:
            assert decode(wire) == depth, name
        else:
            with pytest.raises(declared, match=f"nest deeper than {MAX_NESTING_DEPTH}"):
                decode(wire)
