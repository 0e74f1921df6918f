"""The generated accessor classes against the oracles they replaced.

Both host-side representations of a message give each field its own
property: the parsed :class:`~repro.proto.message.Message` (getter with
defaults and auto-vivification, setter with the kind's coercion inline)
and the :class:`~repro.offload.materialize.CppMessageView` of the arena
object (a load at the member's offset).  Over the workload schemas —
Small, x512 Ints, x8000 Chars, ``deeply_nested`` at depth 3 — and the
kitchen-sink schema for oneof and enum:

* every field read through the parsed message, through the view of the
  DPU's object and through ``read_message`` gives the same value;
* every value ``_coerce_scalar`` rejects, the generated setter rejects
  with the same ``FieldValueError`` and the message is left as it was;
  every value it accepts is stored as it would have stored it.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, Arena, MemoryRegion
from repro.offload import ArenaDeserializer, CppMessageView, TypeUniverse, read_message
from repro.proto import FieldValueError, parse, serialize
from repro.proto import message as message_mod
from repro.proto.descriptor import FieldType
from repro.workloads import WorkloadFactory, workload_schema
from repro.workloads.traces import deeply_nested, nested_schema
from tests.conftest import build_everything
from tests.proto.test_codec_roundtrip import everything_strategy

ARENA_BASE = 0x0900_0000
ARENA_SIZE = 1 << 20

_U32 = st.integers(0, (1 << 32) - 1)
_U64 = st.integers(0, (1 << 64) - 1)


class _Host:
    """One schema's arena and host universe: a message in, its view out."""

    def __init__(self, schema) -> None:
        self.schema = schema
        self.space = AddressSpace()
        self.space.map(MemoryRegion(ARENA_BASE, ARENA_SIZE, "arena"))
        self.universe = TypeUniverse(self.space)
        roots = [schema.pool.message(m.full_name) for m in schema.pool.messages()]
        self.deser = ArenaDeserializer(self.universe.build_adt(roots))

    def place(self, msg) -> int:
        arena = Arena(self.space, ARENA_BASE, ARENA_SIZE)
        return self.deser.deserialize_by_name(msg.DESCRIPTOR.full_name, serialize(msg), arena)

    def view(self, msg, addr: int):
        layout = self.universe.layouts.layout(msg.DESCRIPTOR)
        return CppMessageView(self.universe, layout, addr)


@pytest.fixture(scope="module")
def hosts(kitchen_schema):
    return {name: _Host(schema) for name, schema in (
        ("bench", workload_schema()), ("nested", nested_schema()), ("test", kitchen_schema))}


@st.composite
def _messages(draw, hosts):
    """(host, message): the three workload shapes, a depth-3 tree, or a
    kitchen-sink message with its oneof and enum."""
    which = draw(st.sampled_from(["small", "ints", "chars", "nested", "everything"]))
    if which == "nested":
        host = hosts["nested"]
        factory = WorkloadFactory(seed=draw(st.integers(0, 1 << 16)))
        return host, deeply_nested(depth=3, fanout=draw(st.integers(1, 3)),
                                   weights_per_node=draw(st.integers(0, 8)),
                                   schema=host.schema, factory=factory)
    if which == "everything":
        host = hosts["test"]
        cls = host.schema["test.Everything"]
        msg = draw(everything_strategy(cls))
        if draw(st.booleans()):
            msg.choice_s = draw(st.text(max_size=8))
        msg.f_leaf.label = draw(st.text(max_size=8))
        return host, msg
    host = hosts["bench"]
    if which == "small":
        msg = host.schema["bench.Small"](id=draw(_U32), flags=draw(_U32),
                                         payload=draw(_U64), ok=draw(st.booleans()))
    elif which == "ints":
        msg = host.schema["bench.IntArray"](values=draw(st.lists(_U32, max_size=512)))
    else:
        msg = host.schema["bench.CharArray"](data=draw(st.text(max_size=64)))
    return host, msg


def _read_all(obj, desc) -> dict:
    """Every field of ``obj`` read by attribute, recursively."""
    out = {}
    for fd in desc.fields:
        value = getattr(obj, fd.name)
        if fd.type is FieldType.MESSAGE:
            sub = fd.message_type
            value = ([_read_all(v, sub) for v in value] if fd.is_repeated
                     else _read_all(value, sub))
        elif fd.is_repeated:
            value = list(value)
        out[fd.name] = value
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsed_message_view_and_read_message_read_the_same(data, hosts):
    host, msg = data.draw(_messages(hosts))
    cls, desc = type(msg), msg.DESCRIPTOR
    addr = host.place(msg)
    parsed = parse(cls, serialize(msg))
    expected = _read_all(parsed, desc)
    assert _read_all(host.view(msg, addr), desc) == expected
    assert _read_all(read_message(host.universe, host.schema.factory, desc.full_name, addr),
                     desc) == expected
    assert _read_all(msg, desc) == expected


class _Shade(enum.IntEnum):
    DARK = 1


#: what a caller might hand a scalar field: every type ``_coerce_scalar``
#: names, their near misses, and integers on both sides of every range
_ANY_VALUE = st.one_of(
    st.integers(-(1 << 65), 1 << 65),
    st.sampled_from([-(1 << 63) - 1, -(1 << 63), -(1 << 31) - 1, -(1 << 31), -1, 0,
                     (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 63) - 1,
                     1 << 63, (1 << 64) - 1, 1 << 64]),
    st.booleans(), st.floats(allow_nan=False), st.text(max_size=4), st.binary(max_size=4),
    st.binary(max_size=4).map(bytearray), st.binary(max_size=4).map(memoryview),
    st.just(_Shade.DARK), st.none(), st.just([1]), st.just(1j),
)


def _singular_fields(cls):
    return [fd for fd in cls.DESCRIPTOR.fields if not fd.is_repeated]


def _snapshot(msg) -> dict:
    return {name: (value, type(value)) for name, value in msg._values.items()}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_generated_setter_accepts_and_rejects_what_the_oracle_does(data, kitchen_schema):
    cls = kitchen_schema["test.Everything"]
    msg = build_everything(cls)
    if data.draw(st.booleans()):
        msg.choice_s = "kept"
    fd = data.draw(st.sampled_from(_singular_fields(cls)))
    value = data.draw(_ANY_VALUE)
    before = _snapshot(msg)
    if fd.type is FieldType.MESSAGE:
        with pytest.raises(FieldValueError, match="expected test.Leaf message"):
            setattr(msg, fd.name, value if value is not None else 1)
        assert _snapshot(msg) == before
        return
    try:
        stored = message_mod._coerce_scalar(fd, value)
    except FieldValueError as exc:
        for attempt in (lambda: setattr(msg, fd.name, value), lambda: cls(**{fd.name: value})):
            with pytest.raises(FieldValueError) as caught:
                attempt()
            assert str(caught.value) == str(exc)
        assert _snapshot(msg) == before
        return
    setattr(msg, fd.name, value)
    got = getattr(msg, fd.name)
    assert type(got) is type(stored) and got == stored
    built = getattr(cls(**{fd.name: value}), fd.name)
    assert type(built) is type(stored) and built == stored
    if fd.containing_oneof is not None:
        assert msg.WhichOneof(fd.containing_oneof) == fd.name


@pytest.mark.parametrize("name", ["small", "everything"])
def test_an_unknown_keyword_is_a_field_value_error(name, kitchen_schema):
    cls = (workload_schema()["bench.Small"] if name == "small"
           else kitchen_schema["test.Everything"])
    with pytest.raises(FieldValueError, match="has no field 'nope'"):
        cls(nope=1)
    assert not hasattr(cls(), "nope")


def test_a_field_named_like_an_attribute_keeps_the_attribute():
    """A field name the base class already answers keeps its attribute:
    a message's method still reads as the method and assignment still
    stores the field; a view's ``address`` is still the object address."""
    from repro.proto import compile_schema

    schema = compile_schema('syntax = "proto3"; package clash; message C '
                            '{ uint32 Clear = 1; uint64 address = 2; uint32 _vtable = 3; }')
    C = schema["clash.C"]
    msg = C(Clear=3, address=9, _vtable=5)
    assert callable(msg.Clear) and msg.address == 9 and msg._vtable == 5
    msg.Clear = 4
    assert dict((fd.name, v) for fd, v in msg.ListFields()) == {
        "Clear": 4, "address": 9, "_vtable": 5}
    host = _Host(schema)
    addr = host.place(msg)
    view = host.view(msg, addr)
    assert view.address == addr and view.Clear == 4
    assert host.view(msg, addr).address == addr  # the class's own _vtable still checks
