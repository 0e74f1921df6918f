"""Generated per-type codecs — the compiled tier: straight-line source,
nothing selected at run time.

The reference serializer/deserializer in :mod:`repro.proto.serializer` /
:mod:`repro.proto.deserializer` is fully interpretive: every field pays a
``field_by_number`` dict lookup, a wire-type comparison chain over
:class:`~repro.proto.descriptor.FieldType` and the generic attribute
protocol of :class:`~repro.proto.message.Message`.  That is exactly the
per-field overhead the paper's custom deserializer eliminates by resolving
the schema *once* (§V-B: the ADT is built per class, not per instance).
This module is that one-time resolution, in the protoc/nanopb idiom of
burning the schema into code.  For each
:class:`~repro.proto.descriptor.MessageDescriptor` it emits one
specialized straight-line Python decode function and one encode function
(field names, tag integers, ``struct.Struct`` unpackers, oneof sibling
pops and proto3 defaults all appearing as source constants), compiles
them with :func:`compile`/``exec`` and caches the result on the owning
:class:`~repro.proto.message.MessageFactory`.

Decoding a message is a single ``while`` loop whose tag dispatch is an
``if/elif`` chain over integer literals, storing straight into
``Message._values``; there is no per-field closure call and no dict
probe.  Length-delimited payloads are sliced through :class:`memoryview`
and copied exactly once; packed varint runs route through the one
``np.add.reduceat`` kernel,
:func:`~repro.proto.wire_format.decode_packed_varints`; packed
fixed-width runs through ``numpy.frombuffer``.

Encoding is the protoc scheme: one *size* pass that computes every
submessage length exactly once (results parked in a per-call memo, the
Python analog of C++'s cached-size fields), then one *emit* pass that
writes wire bytes left-to-right into a caller-provided buffer — so the
datapath can reserve exactly ``size`` bytes in a block or frame
(:meth:`GeneratedEncoder.measure` → :meth:`SizedMessage.emit_into`) and
have the wire bytes written there, with no intermediate full-payload
``bytes``.  Each such emission bumps
``ENCODE_PLAN_METRICS.copies_avoided``.

Both generated paths are behaviorally identical to the interpretive
reference — same values, same preserved unknown bytes, same error classes
— which the differential suites (``tests/proto/test_codec_fuzz.py``,
``test_decode_plan.py``, ``test_encode_plan.py``) enforce.  ``generated``
is the default of every ``mode=`` / ``decode_mode=`` / ``encode_mode=``
argument; ``"interpretive"`` selects the oracle.

Cache traffic, compile cost and codec volume are observable through
:data:`PLAN_METRICS` and :data:`ENCODE_PLAN_METRICS`, which export into a
:class:`~repro.metrics.registry.MetricsRegistry`.

The offloaded twin — the same source generation applied to ADT entries —
lives in :mod:`repro.offload.arena_gen`.  See ``docs/DECODER.md``.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .descriptor import FieldDescriptor, FieldType, MessageDescriptor
from .deserializer import DecodeError, skip_field
from .message import Message, MessageFactory, _RepeatedField
from .serializer import EncodeError, _tag_cache, wire_type_for
from .utf8 import Utf8Error
from .wire_format import (
    _DOUBLE,
    _FIXED32,
    _FIXED64,
    _FLOAT,
    _SFIXED32,
    _SFIXED64,
    TruncatedMessageError,
    WireFormatError,
    WireType,
    append_varint,
    decode_packed_varints,
    encode_packed_varints_bulk,
    encode_zigzag,
    make_tag,
    read_varint,
    varint_size,
    write_varint,
)

__all__ = [
    "DecodeMetrics",
    "PLAN_METRICS",
    "EncodeMetrics",
    "ENCODE_PLAN_METRICS",
    "SizedMessage",
    "GeneratedDecoder",
    "GeneratedEncoder",
    "get_gen_decoder",
    "get_gen_encoder",
    "decode_source",
    "encode_source",
    "generate_codec_module",
]

_U64 = 0xFFFFFFFFFFFFFFFF

#: Packed runs shorter than this encode through the scalar loop — below it
#: the NumPy array round-trip costs more than it saves.  Both paths are
#: byte-identical; the threshold is purely a performance crossover.
#: Re-measured with the four-step kernel: bulk costs ~13 us flat to n = 32,
#: the loop ~0.3 us per 1-5 byte value and ~1 us per ten-byte (negative)
#: one: they cross at n = 14 and n = 45; 16 errs by < 10 us either way.
_BULK_MIN = 16

# Fixed-width kinds: the struct that packs/unpacks one element, and the
# NumPy dtype that bulk-converts a packed run.
_FIXED_PACKERS = {
    FieldType.DOUBLE: _DOUBLE,
    FieldType.FLOAT: _FLOAT,
    FieldType.FIXED32: _FIXED32,
    FieldType.FIXED64: _FIXED64,
    FieldType.SFIXED32: _SFIXED32,
    FieldType.SFIXED64: _SFIXED64,
}
_FIXED_DTYPES = {
    t: np.dtype(packer.format) for t, packer in _FIXED_PACKERS.items()
}


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
#
# Cheap plain-int counters on the hot path (the :mod:`repro.runtime.metrics`
# idiom), pushed into a :class:`~repro.metrics.registry.MetricsRegistry` on
# demand via ``bind_registry`` + ``export``.  ``gen_compile_ns`` counts
# outermost compiles only — a nested child compile is inside its parent's
# span.


class _CodecMetrics:
    """Registry binding shared by :class:`DecodeMetrics` and
    :class:`EncodeMetrics`: every counter in ``_HELP`` becomes a
    ``<prefix>_<counter>`` gauge, and the per-message-type count dict
    named ``_PER_MESSAGE`` a ``<prefix>_<name>{message=...}`` family."""

    _PREFIX = ""
    _PER_MESSAGE = ""
    _HELP: dict[str, str] = {}
    _gauges = None  # bound registry families, once bind_registry ran

    def reset(self) -> None:
        for name in self._HELP:
            setattr(self, name, 0)
        getattr(self, self._PER_MESSAGE).clear()

    def bind_registry(self, registry, prefix: str | None = None):
        """Create the exported metric families in ``registry``."""
        prefix = prefix or self._PREFIX
        self._gauges = {
            name: registry.gauge(f"{prefix}_{name}", text)
            for name, text in self._HELP.items()
        }
        self._gauges[self._PER_MESSAGE] = registry.gauge(
            f"{prefix}_{self._PER_MESSAGE}",
            f"generated-codec message {self._PER_MESSAGE}",
            ("message",),
        )
        return self

    def export(self) -> None:
        """Push current counter values into the bound registry."""
        if self._gauges is None:
            return
        for name in self._HELP:
            self._gauges[name].set(getattr(self, name))
        family = self._gauges[self._PER_MESSAGE]
        for full_name, count in getattr(self, self._PER_MESSAGE).items():
            family.labels(full_name).set(count)


@dataclass
class DecodeMetrics(_CodecMetrics):
    """Generated-decoder cache traffic and decode volume (the reference
    decoders of :func:`get_gen_decoder` and the arena decoders of
    :class:`~repro.offload.arena_gen.ArenaGenCache` both feed it)."""

    gen_compiles: int = 0
    gen_cache_hits: int = 0
    gen_source_bytes: int = 0
    gen_compile_ns: int = 0
    #: decodes per message type, aggregated across factories
    decodes: dict[str, int] = field(default_factory=dict)

    _PREFIX = "decode_plan"
    _PER_MESSAGE = "decodes"
    _HELP = {
        "gen_compiles": "generated decoders compiled",
        "gen_cache_hits": "generated-decoder cache hits",
        "gen_source_bytes": "generated decoder source bytes",
        "gen_compile_ns": "ns spent generating + compiling decoders",
    }

    def count_decode(self, full_name: str) -> None:
        self.decodes[full_name] = self.decodes.get(full_name, 0) + 1


@dataclass
class EncodeMetrics(_CodecMetrics):
    """Generated-encoder cache traffic, encode volume and the zero-copy
    send path.

    ``copies_avoided`` counts direct emissions into caller-provided
    buffers (``serialize_into`` / ``SizedMessage.emit_into``) — each one
    is a full-payload ``bytes`` materialization the interpretive pipeline
    would have performed."""

    bytes_emitted: int = 0
    copies_avoided: int = 0
    gen_compiles: int = 0
    gen_cache_hits: int = 0
    gen_source_bytes: int = 0
    gen_compile_ns: int = 0
    #: encodes per message type, aggregated across factories
    encodes: dict[str, int] = field(default_factory=dict)

    _PREFIX = "encode_plan"
    _PER_MESSAGE = "encodes"
    _HELP = {
        "bytes_emitted": "wire bytes emitted by generated encoders",
        "copies_avoided": "full-payload copies avoided by direct buffer emission",
        "gen_compiles": "generated encoders compiled",
        "gen_cache_hits": "generated-encoder cache hits",
        "gen_source_bytes": "generated encoder source bytes",
        "gen_compile_ns": "ns spent generating + compiling encoders",
    }

    def count_encode(self, full_name: str) -> None:
        self.encodes[full_name] = self.encodes.get(full_name, 0) + 1


#: Process-wide codec metrics.  The names (and the ``decode_plan_*`` /
#: ``encode_plan_*`` gauge prefixes) predate the removal of the
#: closure-table plan tier and are kept so scrapes stay comparable.
PLAN_METRICS = DecodeMetrics()
ENCODE_PLAN_METRICS = EncodeMetrics()


# ---------------------------------------------------------------------------
# Shared cold-path helper
# ---------------------------------------------------------------------------


def _handle_unknown(descriptor, full_name, msg, buf, tag, tag_start, pos, end):
    """Tag matched no branch: either a genuinely unknown field (skip and
    preserve) or a known field carried with the wrong wire type (an
    error, matching the interpretive path)."""
    number = tag >> 3
    wire_type = tag & 0x7
    if number == 0:
        raise WireFormatError("field number 0 is invalid")
    if not WireType.is_valid(wire_type):
        raise WireFormatError(f"unsupported wire type {wire_type}")
    fd = descriptor.field_by_number(number)
    if fd is not None:
        raise DecodeError(
            f"{full_name}.{fd.name}: field {fd.name}: wire type "
            f"{wire_type}, expected {wire_type_for(fd)}"
        )
    pos = skip_field(buf, pos, wire_type, end)
    msg._unknown += bytes(buf[tag_start:pos])
    return pos


# ---------------------------------------------------------------------------
# Source fragments
# ---------------------------------------------------------------------------

# raw varint -> python value, as a source expression over ``raw`` (results
# identical to the interpretive ``_decode_varint_value``).
_CONVERT_EXPR = {
    FieldType.BOOL: "raw != 0",
    FieldType.UINT32: "raw & 0xFFFFFFFF",
    FieldType.UINT64: "raw",
    FieldType.INT32: "((raw & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000",
    FieldType.ENUM: "((raw & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000",
    FieldType.INT64: "(raw ^ 0x8000000000000000) - 0x8000000000000000",
    FieldType.SINT32: "(raw >> 1) ^ -(raw & 1)",
    FieldType.SINT64: "(raw >> 1) ^ -(raw & 1)",
}

# decoded uint64 run -> python list, as a source expression over ``raw``
# (element-for-element identical to ``_CONVERT_EXPR``).
_BULK_EXPR = {
    FieldType.BOOL: "(raw != 0).tolist()",
    FieldType.UINT32: "raw.astype(_np.uint32).tolist()",
    FieldType.UINT64: "raw.tolist()",
    FieldType.INT32: "raw.astype(_np.uint32).astype(_np.int32).tolist()",
    FieldType.ENUM: "raw.astype(_np.uint32).astype(_np.int32).tolist()",
    FieldType.INT64: "raw.astype(_np.int64).tolist()",
    FieldType.SINT32: (
        "((raw >> _one).astype(_np.int64) ^ -(raw & _one).astype(_np.int64)).tolist()"
    ),
    FieldType.SINT64: (
        "((raw >> _one).astype(_np.int64) ^ -(raw & _one).astype(_np.int64)).tolist()"
    ),
}


def _to_raw_expr(t: FieldType, var: str) -> str:
    """Python value -> unsigned raw varint, as a source expression
    (results identical to :func:`_varint_converter`)."""
    if t is FieldType.BOOL:
        return f"(1 if {var} else 0)"
    if t is FieldType.SINT32:
        return f"((({var} << 1) ^ ({var} >> 31)) & 0xFFFFFFFF)"
    if t is FieldType.SINT64:
        return f"((({var} << 1) ^ ({var} >> 63)) & 0x{_U64:X})"
    return f"({var} & 0x{_U64:X})"


def _siblings_of(descriptor: MessageDescriptor, fd: FieldDescriptor) -> tuple[str, ...]:
    if fd.containing_oneof is None:
        return ()
    return tuple(
        other.name
        for other in descriptor.fields
        if other.containing_oneof == fd.containing_oneof and other.name != fd.name
    )


class _SourceBuilder:
    """Accumulates indented source lines plus the exec namespace."""

    def __init__(self, ns: dict) -> None:
        self.lines: list[str] = []
        self.ns = ns

    def add(self, indent: int, *lines: str) -> None:
        pad = "    " * indent
        for ln in lines:
            self.lines.append(pad + ln if ln else ln)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Decode generation
# ---------------------------------------------------------------------------


class GeneratedDecoder:
    """One message type's generated straight-line decode function."""

    __slots__ = ("full_name", "descriptor", "source", "decode_into", "decode_count")

    def __init__(self, descriptor: MessageDescriptor) -> None:
        self.full_name = descriptor.full_name
        self.descriptor = descriptor
        self.source = ""
        #: ``decode_into(msg, buf, pos, end)`` — the compiled function.
        self.decode_into = None
        self.decode_count = 0

    def parse(self, msg, buf, pos: int, end: int) -> None:
        """Top-level entry: one wire message (counts toward metrics)."""
        PLAN_METRICS.count_decode(self.full_name)
        self.decode_count += 1
        self.decode_into(msg, buf, pos, end)

    def parse_range(self, msg, buf, pos: int, end: int) -> None:
        self.decode_into(msg, buf, pos, end)


def _decode_branches(
    descriptor: MessageDescriptor, factory: MessageFactory, ns: dict
) -> list[tuple[int, str, list[str]]]:
    """Per-field decode branches: ``(tag, field_name, body_lines)``."""
    branches: list[tuple[int, str, list[str]]] = []
    for i, fd in enumerate(descriptor.fields):
        t = fd.type
        name = fd.name
        natural_tag = make_tag(fd.number, wire_type_for(fd))
        siblings = _siblings_of(descriptor, fd)
        pops = [f"values.pop({s!r}, None)" for s in siblings]

        if fd.is_repeated:
            prologue = [
                f"lst = values.get({name!r})",
                "if lst is None:",
                f"    lst = _RF(_fd{i}, _F)",
                f"    values[{name!r}] = lst",
            ]
            ns[f"_fd{i}"] = fd
            if t is FieldType.MESSAGE:
                child = get_gen_decoder(fd.message_type, factory)
                ns[f"_c{i}"] = child
                ns[f"_cls{i}"] = factory.get_class(fd.message_type)
                branches.append((natural_tag, name, prologue + [
                    "n, pos = _rv(buf, pos)",
                    "npos = pos + n",
                    "if npos > end:",
                    "    raise _Trunc('submessage extends past parent')",
                    f"sub = _cls{i}()",
                    f"_c{i}.decode_into(sub, buf, pos, npos)",
                    "_la(lst, sub)",
                    "pos = npos",
                ]))
            elif t is FieldType.STRING:
                branches.append((natural_tag, name, prologue + [
                    "n, pos = _rv(buf, pos)",
                    "npos = pos + n",
                    "if npos > end:",
                    "    raise _Trunc('string extends past end')",
                    "try:",
                    "    _la(lst, str(buf[pos:npos], 'utf-8'))",
                    "except UnicodeDecodeError as exc:",
                    "    raise _U8(str(exc)) from None",
                    "pos = npos",
                ]))
            elif t is FieldType.BYTES:
                branches.append((natural_tag, name, prologue + [
                    "n, pos = _rv(buf, pos)",
                    "npos = pos + n",
                    "if npos > end:",
                    "    raise _Trunc('bytes extends past end')",
                    "_la(lst, bytes(buf[pos:npos]))",
                    "pos = npos",
                ]))
            elif t.is_varint:
                packed_tag = make_tag(fd.number, WireType.LENGTH_DELIMITED)
                branches.append((packed_tag, name, prologue + [
                    "n, pos = _rv(buf, pos)",
                    "run_end = pos + n",
                    "if run_end > end:",
                    "    raise _Trunc('packed run extends past end')",
                    "raw = _dpf(buf[pos:run_end])",
                    f"_le(lst, {_BULK_EXPR[t]})",
                    "pos = run_end",
                ]))
                branches.append((natural_tag, name, prologue + [
                    "if pos >= end:",
                    "    raise _Trunc('varint extends past end of buffer')",
                    "b = buf[pos]",
                    "if b < 0x80:",
                    "    raw = b",
                    "    pos += 1",
                    "else:",
                    "    raw, pos = _rv(buf, pos)",
                    f"_la(lst, {_CONVERT_EXPR[t]})",
                ]))
            else:  # fixed-width numeric
                width = _FIXED_PACKERS[t].size
                ns[f"_u{i}"] = _FIXED_PACKERS[t].unpack_from
                ns[f"_dt{i}"] = _FIXED_DTYPES[t]
                packed_tag = make_tag(fd.number, WireType.LENGTH_DELIMITED)
                branches.append((packed_tag, name, prologue + [
                    "n, pos = _rv(buf, pos)",
                    "run_end = pos + n",
                    "if run_end > end:",
                    "    raise _Trunc('packed run extends past end')",
                    f"if n % {width}:",
                    "    raise _Wfe('packed run length mismatch')",
                    f"_le(lst, _np.frombuffer(buf[pos:run_end], _dt{i}).tolist())",
                    "pos = run_end",
                ]))
                branches.append((natural_tag, name, prologue + [
                    f"npos = pos + {width}",
                    "if npos > end:",
                    "    raise _Trunc('fixed-width value extends past end')",
                    f"_la(lst, _u{i}(buf, pos)[0])",
                    "pos = npos",
                ]))
            continue

        # -- singular --------------------------------------------------------
        if t is FieldType.MESSAGE:
            child = get_gen_decoder(fd.message_type, factory)
            ns[f"_c{i}"] = child
            ns[f"_cls{i}"] = factory.get_class(fd.message_type)
            branches.append((natural_tag, name, [
                "n, pos = _rv(buf, pos)",
                "npos = pos + n",
                "if npos > end:",
                "    raise _Trunc('submessage extends past parent')",
                f"sub = values.get({name!r})",
                "if sub is None:",
                f"    sub = _cls{i}()",
                f"    values[{name!r}] = sub",
                f"_c{i}.decode_into(sub, buf, pos, npos)",
                "pos = npos",
            ]))
        elif t is FieldType.STRING:
            branches.append((natural_tag, name, [
                "n, pos = _rv(buf, pos)",
                "npos = pos + n",
                "if npos > end:",
                "    raise _Trunc('string extends past end')",
                "try:",
                f"    values[{name!r}] = str(buf[pos:npos], 'utf-8')",
                "except UnicodeDecodeError as exc:",
                "    raise _U8(str(exc)) from None",
                *pops,
                "pos = npos",
            ]))
        elif t is FieldType.BYTES:
            branches.append((natural_tag, name, [
                "n, pos = _rv(buf, pos)",
                "npos = pos + n",
                "if npos > end:",
                "    raise _Trunc('bytes extends past end')",
                f"values[{name!r}] = bytes(buf[pos:npos])",
                *pops,
                "pos = npos",
            ]))
        elif t.is_varint:
            branches.append((natural_tag, name, [
                "if pos >= end:",
                "    raise _Trunc('varint extends past end of buffer')",
                "b = buf[pos]",
                "if b < 0x80:",
                "    raw = b",
                "    pos += 1",
                "else:",
                "    raw, pos = _rv(buf, pos)",
                f"values[{name!r}] = {_CONVERT_EXPR[t]}",
                *pops,
            ]))
        else:  # fixed-width numeric
            width = _FIXED_PACKERS[t].size
            ns[f"_u{i}"] = _FIXED_PACKERS[t].unpack_from
            branches.append((natural_tag, name, [
                f"npos = pos + {width}",
                "if npos > end:",
                "    raise _Trunc('fixed-width value extends past end')",
                f"values[{name!r}] = _u{i}(buf, pos)[0]",
                *pops,
                "pos = npos",
            ]))
    return branches


def decode_source(descriptor: MessageDescriptor, factory: MessageFactory) -> tuple[str, dict]:
    """Build the decode function source plus its exec namespace."""
    ns: dict = {
        "_rv": read_varint,
        "_dpf": decode_packed_varints,
        "_np": np,
        "_one": np.uint64(1),
        "_RF": _RepeatedField,
        "_F": factory,
        "_D": descriptor,
        "_FULL": descriptor.full_name,
        "_la": list.append,
        "_le": list.extend,
        "_unk": _handle_unknown,
        "_Trunc": TruncatedMessageError,
        "_Wfe": WireFormatError,
        "_U8": Utf8Error,
        "_DE": DecodeError,
    }
    branches = _decode_branches(descriptor, factory, ns)
    b = _SourceBuilder(ns)
    b.add(0, f"# generated decoder for {descriptor.full_name}")
    b.add(0, "def _decode(msg, buf, pos, end):")
    b.add(1, "values = msg._values", "fname = None", "try:")
    b.add(2, "while pos < end:")
    b.add(3,
          "fname = None",
          "tag_start = pos",
          "b = buf[pos]",
          "if b < 0x80:",
          "    tag = b",
          "    pos += 1",
          "else:",
          "    tag, pos = _rv(buf, pos)")
    kw = "if"
    for tag, fname, body in branches:
        fd = descriptor.field_by_name(fname)
        b.add(3, f"{kw} tag == {tag}:  # {fname}: {fd.type.name.lower()}")
        b.add(4, f"fname = {fname!r}")
        b.add(4, *body)
        kw = "elif"
    if branches:
        b.add(3, "else:")
        b.add(4, "pos = _unk(_D, _FULL, msg, buf, tag, tag_start, pos, end)")
    else:
        b.add(3, "pos = _unk(_D, _FULL, msg, buf, tag, tag_start, pos, end)")
    b.add(1,
          "except (_Wfe, _U8) as exc:",
          "    if fname is None:",
          "        raise",
          "    raise _DE(f'{_FULL}.{fname}: {exc}') from exc",
          "if pos != end:",
          "    raise _DE(_FULL + ': field payload overran submessage end')",
          "return pos")
    return b.source(), ns


_compile_depth = 0


def get_gen_decoder(descriptor: MessageDescriptor, factory: MessageFactory) -> GeneratedDecoder:
    """The cached generated decoder for ``descriptor`` under ``factory``
    (generating + compiling on first use)."""
    global _compile_depth
    cache = factory.__dict__.get("_gen_decoders")
    if cache is None:
        cache = {}
        factory._gen_decoders = cache
    codec = cache.get(descriptor.full_name)
    if codec is not None:
        PLAN_METRICS.gen_cache_hits += 1
        return codec
    codec = GeneratedDecoder(descriptor)
    # Insert before generating so recursive message types resolve to the
    # in-flight codec (decode_into binds by attribute at call time).
    cache[descriptor.full_name] = codec
    t0 = time.perf_counter_ns()
    _compile_depth += 1
    try:
        source, ns = decode_source(descriptor, factory)
        exec(compile(source, f"<gen_decode {descriptor.full_name}>", "exec"), ns)
    finally:
        _compile_depth -= 1
    codec.decode_into = ns["_decode"]
    codec.source = source
    PLAN_METRICS.gen_compiles += 1
    PLAN_METRICS.gen_source_bytes += len(source)
    if _compile_depth == 0:
        PLAN_METRICS.gen_compile_ns += time.perf_counter_ns() - t0
    return codec


# ---------------------------------------------------------------------------
# Encode generation
# ---------------------------------------------------------------------------


class SizedMessage:
    """A message whose serialized size is already known.

    Produced by :meth:`GeneratedEncoder.measure`: the size pass has run
    and its per-submessage length memo is retained, so the caller can
    first reserve ``size`` bytes at the destination (a block payload slot,
    a frame buffer) and then :meth:`emit_into` it — the emit pass never
    re-measures anything.  The message must not be mutated in between.
    """

    __slots__ = ("encoder", "msg", "size", "_memo")

    def __init__(self, encoder: "GeneratedEncoder", msg: Message, size: int, memo: dict) -> None:
        self.encoder = encoder
        self.msg = msg
        self.size = size
        self._memo = memo

    def emit_into(self, buf, offset: int = 0) -> int:
        """Write the wire bytes into ``buf`` at ``offset``; returns the end
        position.  Counts as one avoided full-payload copy."""
        if offset + self.size > len(buf):
            raise EncodeError(
                f"buffer too small: need {self.size} bytes at offset {offset}, "
                f"have {len(buf) - offset}"
            )
        end = self.encoder._emit(self.msg, buf, offset, self._memo)
        metrics = ENCODE_PLAN_METRICS
        metrics.count_encode(self.encoder.full_name)
        metrics.bytes_emitted += self.size
        metrics.copies_avoided += 1
        return end

    def to_bytes(self) -> bytes:
        """Materialize the wire bytes (no copy avoided)."""
        out = bytearray(self.size)
        self.encoder._emit(self.msg, out, 0, self._memo)
        metrics = ENCODE_PLAN_METRICS
        metrics.count_encode(self.encoder.full_name)
        metrics.bytes_emitted += self.size
        return bytes(out)


class GeneratedEncoder:
    """Generated serializer for one message descriptor: ``_size`` and
    ``_emit`` are the compiled straight-line functions of the two
    passes."""

    __slots__ = ("descriptor", "full_name", "source", "_size", "_emit")

    def __init__(self, descriptor: MessageDescriptor) -> None:
        self.descriptor = descriptor
        self.full_name = descriptor.full_name
        self.source = ""
        self._size = None  # (msg, memo) -> int
        self._emit = None  # (msg, buf, pos, memo) -> int

    def serialized_size(self, msg: Message) -> int:
        """Exact serialized size (one size pass, memo discarded)."""
        return self._size(msg, {})

    def serialize(self, msg: Message) -> bytes:
        """Serialize ``msg`` to a fresh ``bytes`` object."""
        memo: dict = {}
        size = self._size(msg, memo)
        out = bytearray(size)
        self._emit(msg, out, 0, memo)
        metrics = ENCODE_PLAN_METRICS
        metrics.count_encode(self.full_name)
        metrics.bytes_emitted += size
        return bytes(out)

    def serialize_into(self, msg: Message, buf, offset: int = 0) -> int:
        """Serialize ``msg`` directly into ``buf`` at ``offset``.

        ``buf`` is any writable buffer (``bytearray`` or a ``memoryview``
        of one — e.g. a slice of the registered send region).  Returns the
        end position; raises :class:`~repro.proto.serializer.EncodeError`
        if the message does not fit.
        """
        memo: dict = {}
        size = self._size(msg, memo)
        if offset + size > len(buf):
            raise EncodeError(
                f"buffer too small: need {size} bytes at offset {offset}, "
                f"have {len(buf) - offset}"
            )
        end = self._emit(msg, buf, offset, memo)
        metrics = ENCODE_PLAN_METRICS
        metrics.count_encode(self.full_name)
        metrics.bytes_emitted += size
        metrics.copies_avoided += 1
        return end

    def measure(self, msg: Message) -> SizedMessage:
        """Run the size pass now, emit later (see :class:`SizedMessage`)."""
        memo: dict = {}
        size = self._size(msg, memo)
        return SizedMessage(self, msg, size, memo)


def _varint_converter(t: FieldType):
    """Python-value → unsigned-64-bit-raw converter for varint kinds."""
    if t is FieldType.BOOL:
        return lambda v: 1 if v else 0
    if t is FieldType.SINT32:
        return lambda v: encode_zigzag(v, 32)
    if t is FieldType.SINT64:
        return lambda v: encode_zigzag(v, 64)
    return lambda v: v & _U64


def _bulk_raw(t: FieldType, vals) -> np.ndarray:
    """Vectorized counterpart of :func:`_varint_converter`: a list of
    field values → ``uint64`` raw varint values, bit-for-bit equal to the
    scalar conversion."""
    if t in (FieldType.UINT32, FieldType.UINT64, FieldType.BOOL):
        # Half the cost of ``np.asarray`` (6.6 vs 14.2 us at n = 512) given
        # an exact ``list``; the signed and float typecodes are no faster
        # than NumPy (12-13 us), so those kinds stay on ``np.asarray``.
        return np.frombuffer(array("Q", list(vals)), np.uint64)
    a = np.asarray(vals, dtype=np.int64)
    if t is FieldType.SINT32:
        # zigzag32: results fit in 32 bits, so int64 arithmetic is exact.
        return ((a << 1) ^ (a >> 31)).astype(np.uint64)
    if t is FieldType.SINT64:
        # zigzag64 in uint64 arithmetic: (2v mod 2^64) ^ (all-ones if v<0),
        # identical to ((v<<1) ^ (v>>63)) & MASK64 without int64 overflow.
        u = a.view(np.uint64)
        return (u << np.uint64(1)) ^ np.where(a < 0, np.uint64(_U64), np.uint64(0))
    # int32/int64/enum: negatives are 64-bit two's complement.
    return a.view(np.uint64)


def _packed_run_encoder(fd: FieldDescriptor):
    """Returns ``encode(values) -> bytes`` producing the packed payload of
    one repeated numeric field, byte-identical to the interpretive
    per-element loop."""
    t = fd.type
    if t in _FIXED_DTYPES:
        dtype = _FIXED_DTYPES[t]
        packer = _FIXED_PACKERS[t]
        if t is FieldType.FLOAT:

            def encode(vals) -> bytes:
                arr64 = np.asarray(vals, dtype=np.float64)
                with np.errstate(over="ignore"):
                    arr = arr64.astype(np.float32)
                # struct.pack('<f') raises where NumPy would round to inf;
                # keep the two encode paths behaviorally identical.
                if np.any(np.isinf(arr) & np.isfinite(arr64)):
                    raise OverflowError("float too large to pack with f format")
                return arr.tobytes()

            return encode

        def encode(vals) -> bytes:
            if len(vals) < _BULK_MIN:
                out = bytearray()
                for v in vals:
                    out += packer.pack(v)
                return bytes(out)
            return np.asarray(vals, dtype=dtype).tobytes()

        return encode

    to_raw = _varint_converter(t)
    if t is FieldType.BOOL:
        # Booleans are single-byte varints; the uint8 buffer IS the run.
        return lambda vals: bytes(vals)

    def encode(vals) -> bytes:
        if len(vals) < _BULK_MIN:
            out = bytearray()
            for v in vals:
                append_varint(out, to_raw(v))
            return bytes(out)
        return encode_packed_varints_bulk(_bulk_raw(t, vals))

    return encode


def _encode_field_fragments(
    descriptor: MessageDescriptor, factory: MessageFactory, ns: dict
) -> list[tuple[str, str, list[str], list[str]]]:
    """Per-field ``(name, present_expr, size_lines, emit_lines)`` in
    field-number order — ``ListFields`` semantics, as source."""
    out = []
    for i, fd in enumerate(descriptor.fields_sorted()):
        t = fd.type
        tag, packed_tag, tag_len = _tag_cache(fd)
        ns[f"_t{i}"] = bytes(tag)

        if fd.is_repeated:
            present = "len(v)"
            if t is FieldType.MESSAGE:
                child = get_gen_encoder(fd.message_type, factory)
                ns[f"_e{i}"] = child
                size_lines = [
                    f"child = _e{i}._size",
                    "for e in v:",
                    "    n = child(e, memo)",
                    "    memo[id(e)] = n",
                    f"    total += {tag_len} + _vs(n) + n",
                ]
                emit_lines = [
                    f"child = _e{i}._emit",
                    "for e in v:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos = _wv(buf, pos + {tag_len}, memo[id(e)])",
                    "    pos = child(e, buf, pos, memo)",
                ]
            elif t is FieldType.STRING:
                size_lines = [
                    "datas = [e.encode('utf-8') for e in v]",
                    "memo[id(v)] = datas",
                    "for d in datas:",
                    "    n = len(d)",
                    f"    total += {tag_len} + _vs(n) + n",
                ]
                emit_lines = [
                    "for d in memo[id(v)]:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos = _wv(buf, pos + {tag_len}, len(d))",
                    "    end = pos + len(d)",
                    "    buf[pos:end] = d",
                    "    pos = end",
                ]
            elif t is FieldType.BYTES:
                size_lines = [
                    "for d in v:",
                    "    n = len(d)",
                    f"    total += {tag_len} + _vs(n) + n",
                ]
                emit_lines = [
                    "for d in v:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos = _wv(buf, pos + {tag_len}, len(d))",
                    "    end = pos + len(d)",
                    "    buf[pos:end] = d",
                    "    pos = end",
                ]
            elif fd.is_packed and not getattr(fd, "force_unpacked", False):
                ns[f"_run{i}"] = _packed_run_encoder(fd)
                ns[f"_pt{i}"] = bytes(packed_tag)
                size_lines = [
                    f"run = _run{i}(v)",
                    "memo[id(v)] = run",
                    "n = len(run)",
                    f"total += {tag_len} + _vs(n) + n",
                ]
                emit_lines = [
                    "run = memo[id(v)]",
                    f"buf[pos:pos + {tag_len}] = _pt{i}",
                    f"pos = _wv(buf, pos + {tag_len}, len(run))",
                    "end = pos + len(run)",
                    "buf[pos:end] = run",
                    "pos = end",
                ]
            elif t.is_varint:
                size_lines = [
                    f"total += len(v) * {tag_len}",
                    "for e in v:",
                    f"    total += _vs({_to_raw_expr(t, 'e')})",
                ]
                emit_lines = [
                    "for e in v:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos = _wv(buf, pos + {tag_len}, {_to_raw_expr(t, 'e')})",
                ]
            else:  # unpacked fixed-width ([packed = false])
                packer = _FIXED_PACKERS[t]
                ns[f"_p{i}"] = packer.pack_into
                width = packer.size
                size_lines = [f"total += len(v) * {tag_len + width}"]
                emit_lines = [
                    f"pack_into = _p{i}",
                    "for e in v:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos += {tag_len}",
                    "    pack_into(buf, pos, e)",
                    f"    pos += {width}",
                ]
            out.append((fd.name, present, size_lines, emit_lines))
            continue

        # -- singular --------------------------------------------------------
        if t is FieldType.MESSAGE:
            child = get_gen_encoder(fd.message_type, factory)
            ns[f"_e{i}"] = child
            out.append((fd.name, "True", [
                f"n = _e{i}._size(v, memo)",
                "memo[id(v)] = n",
                f"total += {tag_len} + _vs(n) + n",
            ], [
                "n = memo[id(v)]",
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"pos = _wv(buf, pos + {tag_len}, n)",
                f"pos = _e{i}._emit(v, buf, pos, memo)",
            ]))
            continue

        default = fd.default_value()
        present = f"v != {default!r}"
        if t is FieldType.BOOL:
            size_lines = [f"total += {tag_len + 1}"]
            emit_lines = [
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"buf[pos + {tag_len}] = 1",
                f"pos += {tag_len + 1}",
            ]
        elif t.is_varint:
            size_lines = [f"total += {tag_len} + _vs({_to_raw_expr(t, 'v')})"]
            emit_lines = [
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"pos = _wv(buf, pos + {tag_len}, {_to_raw_expr(t, 'v')})",
            ]
        elif t is FieldType.STRING:
            size_lines = [
                "data = v.encode('utf-8')",
                "memo[id(v)] = data",
                "n = len(data)",
                f"total += {tag_len} + _vs(n) + n",
            ]
            emit_lines = [
                "data = memo[id(v)]",
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"pos = _wv(buf, pos + {tag_len}, len(data))",
                "end = pos + len(data)",
                "buf[pos:end] = data",
                "pos = end",
            ]
        elif t is FieldType.BYTES:
            size_lines = [
                "n = len(v)",
                f"total += {tag_len} + _vs(n) + n",
            ]
            emit_lines = [
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"pos = _wv(buf, pos + {tag_len}, len(v))",
                "end = pos + len(v)",
                "buf[pos:end] = v",
                "pos = end",
            ]
        else:  # fixed-width scalar
            packer = _FIXED_PACKERS[t]
            ns[f"_p{i}"] = packer.pack_into
            width = packer.size
            size_lines = [f"total += {tag_len + width}"]
            emit_lines = [
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"_p{i}(buf, pos + {tag_len}, v)",
                f"pos += {tag_len + width}",
            ]
        out.append((fd.name, present, size_lines, emit_lines))
    return out


def encode_source(descriptor: MessageDescriptor, factory: MessageFactory) -> tuple[str, dict]:
    """Build the ``_size``/``_emit`` source pair plus its namespace."""
    ns: dict = {"_vs": varint_size, "_wv": write_varint}
    fields = _encode_field_fragments(descriptor, factory, ns)
    b = _SourceBuilder(ns)
    b.add(0, f"# generated encoder for {descriptor.full_name}")
    b.add(0, "def _size(msg, memo):")
    b.add(1, "values = msg._values", "total = len(msg._unknown)")
    for name, present, size_lines, _ in fields:
        b.add(1, f"v = values.get({name!r})")
        cond = "v is not None" if present == "True" else f"v is not None and {present}"
        b.add(1, f"if {cond}:")
        b.add(2, *size_lines)
    b.add(1, "return total")
    b.add(0, "")
    b.add(0, "def _emit(msg, buf, pos, memo):")
    b.add(1, "values = msg._values")
    for name, present, _, emit_lines in fields:
        b.add(1, f"v = values.get({name!r})")
        cond = "v is not None" if present == "True" else f"v is not None and {present}"
        b.add(1, f"if {cond}:")
        b.add(2, *emit_lines)
    b.add(1,
          "unknown = msg._unknown",
          "if unknown:",
          "    end = pos + len(unknown)",
          "    buf[pos:end] = unknown",
          "    pos = end",
          "return pos")
    return b.source(), ns


def get_gen_encoder(descriptor: MessageDescriptor, factory: MessageFactory) -> GeneratedEncoder:
    """The cached generated encoder for ``descriptor`` under ``factory``
    (generating + compiling on first use)."""
    global _compile_depth
    cache = factory.__dict__.get("_gen_encoders")
    if cache is None:
        cache = {}
        factory._gen_encoders = cache
    codec = cache.get(descriptor.full_name)
    if codec is not None:
        ENCODE_PLAN_METRICS.gen_cache_hits += 1
        return codec
    codec = GeneratedEncoder(descriptor)
    cache[descriptor.full_name] = codec
    t0 = time.perf_counter_ns()
    _compile_depth += 1
    try:
        source, ns = encode_source(descriptor, factory)
        exec(compile(source, f"<gen_encode {descriptor.full_name}>", "exec"), ns)
    finally:
        _compile_depth -= 1
    codec._size = ns["_size"]
    codec._emit = ns["_emit"]
    codec.source = source
    ENCODE_PLAN_METRICS.gen_compiles += 1
    ENCODE_PLAN_METRICS.gen_source_bytes += len(source)
    if _compile_depth == 0:
        ENCODE_PLAN_METRICS.gen_compile_ns += time.perf_counter_ns() - t0
    return codec


# ---------------------------------------------------------------------------
# Module emission (the `repro codegen` CLI artifact)
# ---------------------------------------------------------------------------

_MODULE_TEMPLATE = '''\
"""Generated by repro.proto.gen_codec — do not edit.

source: {filename}

The per-type codec sources below are the exact text this module compiles
at import time (via repro.proto.gen_codec); they are inlined verbatim for
inspection.
"""

from repro.proto import compile_schema
from repro.proto.gen_codec import get_gen_decoder, get_gen_encoder

PROTO_SOURCE = {source!r}

_schema = compile_schema(PROTO_SOURCE)
DESCRIPTOR_POOL = _schema.pool
MESSAGE_FACTORY = _schema.factory

#: full_name -> GeneratedDecoder / GeneratedEncoder
DECODERS = {{
    m.full_name: get_gen_decoder(m, MESSAGE_FACTORY)
    for m in DESCRIPTOR_POOL.messages()
}}
ENCODERS = {{
    m.full_name: get_gen_encoder(m, MESSAGE_FACTORY)
    for m in DESCRIPTOR_POOL.messages()
}}

{inlined}
'''


def generate_codec_module(proto_source: str, filename: str = "<proto>") -> str:
    """Emit a self-contained module binding the generated codecs for every
    message in ``proto_source``, with the generated sources inlined as
    comments for inspection."""
    from . import compile_schema  # local import: avoid a cycle at module load

    schema = compile_schema(proto_source)
    blocks = []
    for m in schema.pool.messages():
        dec = get_gen_decoder(m, schema.factory)
        enc = get_gen_encoder(m, schema.factory)
        body = "\n".join(
            "# " + ln if ln else "#"
            for ln in (dec.source + "\n" + enc.source).splitlines()
        )
        blocks.append(f"# ==== {m.full_name} " + "=" * max(4, 60 - len(m.full_name)) + f"\n{body}")
    return _MODULE_TEMPLATE.format(
        filename=filename,
        source=proto_source,
        inlined="\n\n".join(blocks) or "# (no messages)",
    )
