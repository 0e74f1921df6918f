"""Checked once, then loaded: the sites that resolve an object's or a
block's memory once and then store through the region's buffer.

* bounds — a span that leaves its region raises ``MemoryError_`` *before
  a byte is written*, at every such site;
* differential — the generated arena decoder (buffer stores at literal
  offsets) and the interpretive oracle (one checked space access per
  store) leave byte-identical arena images, on a ``bytearray`` region and
  on a shared-memory one, and never resize the backing store;
* counts — ``AddressSpace.region_of`` calls per request and wire reads of
  the size bound are exact, so they are asserted exactly (no timing):
  no request of the offloaded stack resolves an address, and a view
  reading a whole tree that one region holds resolves it once.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.offload.arena_deserializer as arena_module
from repro.core import create_channel
from repro.core.wire import BlockWriter
from repro.memory import AddressSpace, Arena, MemoryError_, MemoryRegion, SharedRegion
from repro.offload import (
    ArenaDeserializer,
    CppMessageView,
    TypeUniverse,
    decode_adt,
    encode_adt,
)
from repro.offload.engine import DpuEngine, HostEngine
from repro.proto import compile_schema, get_fixed_layout, serialize
from repro.proto.wire_format import WireType, encode_varint, make_tag
from repro.workloads import WORKLOAD_PROTO, WorkloadFactory, deeply_nested
from repro.workloads.traces import NESTED_PROTO
from repro.xrpc import Network, OffloadedXrpcServer, register_offloaded_servicer
from repro.xrpc.framing import FrameDecoder, encode_request
from tests.conftest import KITCHEN_SINK_PROTO
from tests.proto.test_codec_roundtrip import everything_strategy

ARENA_BASE = 0x5000_0000
ARENA_SIZE = 1 << 16

FLAT_PROTO = """
syntax = "proto3";
package flat;
message Scalars { double t = 1; sint32 delta = 2; fixed64 seq = 3; bool ok = 4; }
"""


def _env(proto: str, root: str, region: MemoryRegion):
    """Schema, space (``region`` mapped as the arena), universe, ADT and
    the root's entry index."""
    schema = compile_schema(proto)
    space = AddressSpace("host")
    space.map(region)
    universe = TypeUniverse(space)
    adt = decode_adt(encode_adt(universe.build_adt([schema.pool.message(root)])))
    return schema, space, universe, adt, adt.index_of(root)


class TestBounds:
    """Each site is handed a span that ends one byte past its region."""

    @pytest.fixture()
    def flat(self):
        region = MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena")
        return *_env(FLAT_PROTO, "flat.Scalars", region), region

    def _short_arena(self, space, region, sizeof):
        # The arena believes it owns sizeof + 64 bytes; the region ends
        # sizeof - 1 bytes after the object's address.
        return Arena(space, region.end - (sizeof - 1), sizeof + 64)

    @pytest.mark.parametrize("mode", ["generated", "interpretive"])
    @pytest.mark.parametrize("through_region", [False, True])
    def test_arena_object_past_region_end(self, flat, mode, through_region):
        schema, space, _, adt, root, region = flat
        wire = serialize(schema["flat.Scalars"](t=1.5, delta=-3, seq=9, ok=True))
        arena = self._short_arena(region if through_region else space, region,
                                  adt.entry(root).sizeof)
        with pytest.raises(MemoryError_):
            ArenaDeserializer(adt, mode=mode).deserialize(root, wire, arena)
        assert region.buf == bytearray(ARENA_SIZE)

    def test_fixed_arena_object_past_region_end(self, flat):
        schema, space, _, adt, root, region = flat
        cls = schema["flat.Scalars"]
        wire = get_fixed_layout(cls.DESCRIPTOR, schema.factory).encode(cls(t=2.0, ok=True))
        arena = self._short_arena(space, region, adt.entry(root).sizeof)
        with pytest.raises(MemoryError_):
            ArenaDeserializer(adt).deserialize_fixed(root, wire, arena)
        assert region.buf == bytearray(ARENA_SIZE)

    def test_block_writer_capacity_past_region(self, flat):
        space, region = flat[1], flat[5]
        for where in (space, region):
            with pytest.raises(MemoryError_):
                BlockWriter(where, region.end - 1024, 1025)
        assert region.buf == bytearray(ARENA_SIZE)
        BlockWriter(region, region.end - 1024, 1024).seal()  # the last block fits

    def test_view_at_region_end(self, flat):
        schema, space, universe, adt, root, region = flat
        layout = universe.layouts.layout(schema.pool.message("flat.Scalars"))
        ArenaDeserializer(adt).deserialize(
            root, b"", Arena(space, region.end - layout.sizeof, layout.sizeof))
        view = CppMessageView(universe, layout, region.end - layout.sizeof)
        assert (view.t, view.delta, view.seq, view.ok) == (0.0, 0, 0, False)
        with pytest.raises(MemoryError_):
            CppMessageView(universe, layout, region.end - layout.sizeof + 8)


@pytest.fixture(scope="module", params=["bytearray", "shm"])
def kitchen(request):
    if request.param == "shm":
        region = SharedRegion(ARENA_BASE, ARENA_SIZE, "arena")
    else:
        region = MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena")
    yield *_env(KITCHEN_SINK_PROTO, "test.Everything", region), region
    if request.param == "shm":
        region.cleanup()


def _decorated(draw, cls):
    """One fuzz message: every scalar kind from the shared strategy, plus
    what it leaves out — the oneof, the singular and repeated child."""
    msg = draw(everything_strategy(cls))
    choice = draw(st.sampled_from(["none", "s", "u"]))
    if choice == "s":
        msg.choice_s = draw(st.text(max_size=30))
    elif choice == "u":
        msg.choice_u = draw(st.integers(0, (1 << 32) - 1))
    if draw(st.booleans()):
        msg.f_leaf.id = draw(st.integers(-(1 << 31), (1 << 31) - 1))
    if draw(st.booleans()):
        msg.f_leaf.label = draw(st.text(max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        msg.r_leaf.add().id = draw(st.integers(0, 1000))
    return msg


class TestArenaImageDifferential:
    # Same case count as tests/offload/test_arena_plan.py's differential.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_and_interpretive_images_identical(self, data, kitchen):
        schema, space, _, adt, root, region = kitchen
        cls = schema["test.Everything"]
        # Two messages back to back: the second's f_leaf merges into the
        # first's, its oneof member replaces the first's, its repeated
        # fields append after a merge.
        wire = b"".join(serialize(_decorated(data.draw, cls)) for _ in range(2))
        backing = len(region.buf)
        images = {}
        for mode in ("interpretive", "generated"):
            region.fill(ARENA_BASE, ARENA_SIZE)
            deser = ArenaDeserializer(adt, mode=mode)
            # The generated tier goes through the region, as DpuEngine.call
            # hands it over; the oracle through the space, store by store.
            target = region if mode == "generated" else space
            arena = Arena(target, ARENA_BASE, ARENA_SIZE)
            assert deser.deserialize(root, wire, arena) == ARENA_BASE
            images[mode] = (bytes(region.buf[: arena.used]), asdict(deser.stats))
            assert len(region.buf) == backing
        assert images["generated"][0] == images["interpretive"][0]
        assert images["generated"][1] == images["interpretive"][1]


SERVICE_PROTO = WORKLOAD_PROTO + """
service Bench {
  rpc Ping (Small) returns (Empty);
  rpc Count (CharArray) returns (Empty);
  rpc Sum (IntArray) returns (Empty);
}
"""


def offloaded_stack():
    """An in-process offloaded deployment of ``bench.Bench``; returns
    ``(schema, channel, socket, drive)``."""
    schema = compile_schema(SERVICE_PROTO)
    service = schema.service("bench.Bench")
    Empty = schema["bench.Empty"]

    class Servicer:
        def Ping(self, request, context):
            assert request.id >= 0 and request.flags >= 0 and request.payload >= 0
            return Empty()

        def Count(self, request, context):
            assert len(request.data) >= 0
            return Empty()

        def Sum(self, request, context):
            assert sum(request.values) >= 0
            return Empty()

    rdma = create_channel()
    host = HostEngine(rdma, schema)
    register_offloaded_servicer(host, service, Servicer())
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    network = Network()
    front = OffloadedXrpcServer(network, "dpu:1", dpu, service)
    socket = network.connect("dpu:1", "test-client")

    def drive():
        front.progress()
        host.progress()

    return schema, rdma, socket, drive


def round_trips(socket, drive, frames, depth):
    """Send ``frames`` keeping ``depth`` outstanding; returns the
    response statuses in call-id order."""
    decoder = FrameDecoder()
    statuses = {}
    sent = 0
    for _ in range(10_000):
        while sent < len(frames) and sent - len(statuses) < depth:
            socket.send(frames[sent])
            sent += 1
        drive()
        decoder.feed(socket.recv(1 << 20))
        for frame in decoder.frames():
            statuses[frame.call_id] = frame.status
        if len(statuses) == len(frames):
            return [statuses[call_id] for call_id in sorted(statuses)]
    raise AssertionError(f"only {len(statuses)} of {len(frames)} answered")


def count_region_of(monkeypatch) -> list[int]:
    """From now on every ``AddressSpace.region_of`` call adds one to the
    returned list's only item."""
    calls = [0]
    original = AddressSpace.region_of

    def counted(self, addr, length=1):
        calls[0] += 1
        return original(self, addr, length)

    monkeypatch.setattr(AddressSpace, "region_of", counted)
    return calls


class TestCounts:
    # Held at the count: blocks, the arena and the host's view load
    # through regions resolved once per connection or view class.
    @pytest.mark.parametrize("method, depth, msgs_per_block", [
        ("Ping", 16, 16.0), ("Ping", 1, 1.0), ("Sum", 16, None)])
    def test_no_request_resolves_an_address(self, monkeypatch, method, depth, msgs_per_block):
        schema, rdma, socket, drive = offloaded_stack()
        factory = WorkloadFactory(seed=7, schema=schema)
        make = factory.small if method == "Ping" else lambda: factory.int_array(512)
        frames = [encode_request(i, f"/bench.Bench/{method}", serialize(make()))
                  for i in range(128)]
        assert round_trips(socket, drive, frames[:64], depth) == [0] * 64  # warm
        calls = count_region_of(monkeypatch)
        before = (rdma.client.stats.requests_sent, rdma.client.stats.blocks_sent)
        assert round_trips(socket, drive, frames[64:], depth) == [0] * 64
        requests = rdma.client.stats.requests_sent - before[0]
        blocks = rdma.client.stats.blocks_sent - before[1]
        assert requests == 64
        if msgs_per_block is not None:
            assert requests / blocks == msgs_per_block
        assert calls == [0]

    def test_a_nested_tree_is_resolved_once_per_block(self, monkeypatch):
        # A depth-3 tree of 13 nodes (children, strings, weights) in one
        # arena: the view resolves the root's region and reads every
        # child object, pointer array, element array and string from it.
        region = MemoryRegion(ARENA_BASE, ARENA_SIZE, "block")
        schema, _, universe, adt, root = _env(NESTED_PROTO, "nested.Node", region)
        tree = deeply_nested(depth=3, fanout=3, schema=schema)
        addr = ArenaDeserializer(adt).deserialize(root, serialize(tree), Arena(
            region, ARENA_BASE, ARENA_SIZE))
        layout = universe.layouts.layout(schema.pool.message("nested.Node"))

        def read(node):
            return (node.id, node.label, node.weights, node.score, node.active,
                    [read(child) for child in node.children])

        def expected(node):
            return (node.id, node.label, list(node.weights), node.score, node.active,
                    [expected(child) for child in node.children])

        CppMessageView(universe, layout, addr)  # the view class compiled and proven
        calls = count_region_of(monkeypatch)
        assert read(CppMessageView(universe, layout, addr)) == expected(tree)
        assert calls == [1]

    def test_flat_type_bound_is_constant_and_matches_the_scan(self, monkeypatch):
        schema = compile_schema(WORKLOAD_PROTO)
        dpu_adt = decode_adt(encode_adt(TypeUniverse(AddressSpace("host")).build_adt(
            [schema.pool.message(n) for n in ("bench.Small", "bench.CharArray",
                                              "bench.IntArray")])))
        deser = ArenaDeserializer(dpu_adt)
        small = dpu_adt.index_of("bench.Small")
        factory = WorkloadFactory(seed=11, schema=schema)
        rng = random.Random(11)
        payloads = [serialize(factory.small()) for _ in range(200)]
        unknown = (encode_varint(make_tag(900, WireType.LENGTH_DELIMITED)) + b"\x03abc"
                   + encode_varint(make_tag(901, WireType.VARINT)) + b"\x7f")
        payloads += [unknown + p for p in rng.sample(payloads, 20)] + [b"", unknown]
        scans = [deser._estimate(small, p, 0, len(p)) + 64 for p in payloads]

        tags = 0
        original = arena_module.read_tag

        def counted(buf, pos):
            nonlocal tags
            tags += 1
            return original(buf, pos)

        monkeypatch.setattr(arena_module, "read_tag", counted)
        assert [deser.estimate_size(small, p) for p in payloads] == scans
        assert len(set(scans)) == 1
        assert tags == 0
        # Anything that can grow the object still scans its payload.
        CharArray, IntArray = schema["bench.CharArray"], schema["bench.IntArray"]
        for name, wire in (("bench.CharArray", serialize(CharArray(data="x" * 100))),
                           ("bench.IntArray", serialize(IntArray(values=[1, 2, 3])))):
            tags = 0
            index = dpu_adt.index_of(name)
            assert deser.estimate_size(index, wire) == deser._estimate(
                index, wire, 0, len(wire)) + 64
            assert tags > 0

    def test_message_field_still_scans(self):
        region = MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena")
        schema, _, _, adt, root = _env(KITCHEN_SINK_PROTO, "test.Node", region)
        node = schema["test.Node"](key=5)
        node.leaf.label = "a label well past any small-string buffer"
        deser = ArenaDeserializer(adt)
        assert deser._flat_bounds[root] is None
        assert deser.estimate_size(root, serialize(node)) > deser.estimate_size(root, b"")


class TestMalformedRequestDoesNotWedgeTheChannel:
    """Regression: a request whose arena decode raises *inside the block
    writer* left the open block with a message in progress, and every
    later request on the connection failed with ``BlockFormatError:
    previous message not committed`` — INVALID_ARGUMENT forever."""

    @pytest.mark.parametrize("method, malformed", [
        ("Ping", bytes.fromhex("0a0100")),  # Small.id sent length-delimited
        ("Count", bytes.fromhex("0a02fffe")),  # CharArray.data is not UTF-8
    ])
    def test_ok_malformed_ok_ok(self, method, malformed):
        schema, rdma, socket, drive = offloaded_stack()
        good = {"Ping": serialize(schema["bench.Small"](id=7, ok=True)),
                "Count": serialize(schema["bench.CharArray"](data="fine"))}[method]
        path = f"/bench.Bench/{method}"
        frames = [encode_request(i, path, payload)
                  for i, payload in enumerate([good, malformed, good, good])]
        assert round_trips(socket, drive, frames, depth=1) == [0, 3, 0, 0]
        assert rdma.client.outstanding == 0
