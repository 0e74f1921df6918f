"""Every varint length, at every place a decoder can meet it.

The generated decoders read a varint of up to five bytes inline and
leave the rest to :func:`~repro.proto.wire_format.read_varint`; an
inline read is taken only while five bytes remain before the end of the
message.  This file walks one varint field at a time through every
encoded length from 1 to 10 (the shortest and the longest value of each
length, and a zero padded out to it), an 11-byte varint and a 10th byte
above 1 — placed mid-message (five bytes remain: the inline read), as
the last bytes of the buffer (fewer remain: the cold path) and cut at
every byte.  The four decoders must agree on each wire: host generated,
host interpretive, arena generated and arena interpretive give the same
value, and the two arena tiers the same object bytes and the same
:class:`~repro.offload.arena_deserializer.DeserializeStats` census — or
each pair raises the same exception class with the same message, and
the two halves either both raise or both decode.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, TypeUniverse, decode_adt, encode_adt, read_message
from repro.proto import compile_schema, parse
from repro.proto.descriptor import FieldType
from repro.proto.wire_format import WireType, encode_varint, make_tag
from repro.workloads import WORKLOAD_PROTO
from tests.conftest import KITCHEN_SINK_PROTO

ARENA_BASE = 0x6000_0000
ARENA_SIZE = 1 << 12

#: (schema source, root messages of the ADT, the roots whose varint fields are walked)
SCHEMAS = {
    "bench": (WORKLOAD_PROTO, ("bench.Small",)),
    "kitchen": (KITCHEN_SINK_PROTO, ("test.Everything", "test.Node", "test.Leaf")),
}

_VARINT_KINDS = {
    FieldType.INT32, FieldType.INT64, FieldType.UINT32, FieldType.UINT64,
    FieldType.SINT32, FieldType.SINT64, FieldType.BOOL, FieldType.ENUM,
}


def _encodings() -> list[tuple[str, bytes]]:
    """(id, varint bytes): every length 1..10 three ways, then the two
    malformed ones."""
    out = []
    for length in range(1, 11):
        low = 0 if length == 1 else 1 << (7 * (length - 1))
        high = (1 << 64) - 1 if length == 10 else (1 << (7 * length)) - 1
        out.append((f"len{length}-min", encode_varint(low)))
        out.append((f"len{length}-max", encode_varint(high)))
        out.append((f"len{length}-padded-zero", b"\x80" * (length - 1) + b"\x00"))
    out.append(("len11", b"\x80" * 10 + b"\x00"))
    out.append(("tenth-byte-2", b"\xff" * 9 + b"\x02"))
    for name, data in out[:30]:
        assert len(data) == int(name[3:].split("-")[0]), name
    return out


ENCODINGS = _encodings()


class _Env:
    def __init__(self, source: str, roots: tuple[str, ...]) -> None:
        self.schema = compile_schema(source)
        self.space = AddressSpace("varint-host")
        self.space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
        self.universe = TypeUniverse(self.space)
        descs = [self.schema.pool.message(r) for r in roots]
        self.adt = decode_adt(encode_adt(self.universe.build_adt(descs)))
        self.roots = roots
        #: one deserializer per arena tier, its census reset per decode
        self.deserializers = {mode: ArenaDeserializer(self.adt, mode=mode)
                              for mode in ("generated", "interpretive")}


@pytest.fixture(scope="module", params=sorted(SCHEMAS))
def env(request):
    return _Env(*SCHEMAS[request.param])


def _fields(env: _Env):
    """(root, field) for every singular or repeated varint field of the roots."""
    for root in env.roots:
        desc = env.schema.pool.message(root)
        for fd in desc.fields:
            if fd.type in _VARINT_KINDS:
                yield root, fd


def _follower(desc, fd) -> bytes:
    """A second field to follow the walked one, at least four bytes
    long: a different varint field holding a 5-byte value, or a fixed64
    of an unknown number where the message has no other varint field."""
    for other in desc.fields:
        if other.type in _VARINT_KINDS and other.number != fd.number and (
                other.containing_oneof is None or other.containing_oneof != fd.containing_oneof):
            return encode_varint(make_tag(other.number, WireType.VARINT)) + encode_varint(1 << 28)
    return encode_varint(make_tag(99, WireType.FIXED64)) + bytes(8)


def _wires(env: _Env, varint: bytes):
    """(root, wire, varint start) for every varint field of the roots,
    the varint mid-message and ending the buffer."""
    for root, fd in _fields(env):
        tag = encode_varint(make_tag(fd.number, WireType.VARINT))
        follow = _follower(env.schema.pool.message(root), fd)
        yield root, tag + varint + follow, len(tag)
        yield root, follow + tag + varint, len(follow) + len(tag)


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 — the class and text are what is compared
        return "raised", (type(exc), str(exc))


def _four(env: _Env, root: str, wire: bytes):
    """Run the four decoders on ``wire``; assert they agree."""
    cls = env.schema[root]
    host = {mode: _outcome(lambda: parse(cls, wire, mode)) for mode in ("generated", "interpretive")}
    arena = {}
    for mode, deser in env.deserializers.items():
        deser.stats.reset()
        env.space.write(ARENA_BASE, bytes(ARENA_SIZE))

        def run():
            a = Arena(env.space, ARENA_BASE, ARENA_SIZE)
            addr = deser.deserialize_by_name(root, wire, a)
            return (read_message(env.universe, env.schema.factory, root, addr),
                    env.space.read(ARENA_BASE, a.used), asdict(deser.stats))

        arena[mode] = _outcome(run)
    assert host["generated"] == host["interpretive"], (wire.hex(), host)
    assert arena["generated"] == arena["interpretive"], (wire.hex(), arena)
    kind, result = host["generated"]
    assert arena["generated"][0] == kind, (wire.hex(), host, arena)
    if kind == "ok":
        assert arena["generated"][1][0] == result, wire.hex()
    return kind


@pytest.mark.parametrize("name,varint", ENCODINGS, ids=[n for n, _ in ENCODINGS])
def test_every_varint_length_decodes_alike_in_all_four_decoders(env, name, varint):
    for root, wire, _ in _wires(env, varint):
        for cut in range(len(wire) + 1):  # every truncation, and the whole wire
            _four(env, root, wire[:cut])


def test_both_branches_of_the_five_bytes_guard_run(env):
    """Among the walked wires, a multi-byte varint starts both with five
    bytes left before the end of the message (the inline read) and with
    fewer (the cold path); both decode."""
    remaining = set()
    for _, varint in ENCODINGS[:30]:
        if len(varint) > 1:
            for root, wire, start in _wires(env, varint):
                remaining.add(start + 5 <= len(wire))
                assert _four(env, root, wire) == "ok"
    assert remaining == {True, False}
