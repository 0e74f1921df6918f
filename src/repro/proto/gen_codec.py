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

The tag-wire decoder is said once, in the "tag loop" section below: the
frame, the three wire reads a branch is built from, the cold path for a
tag no branch matched and the compile step.  This module's
:func:`decode_source` is its ``Message`` back end;
:mod:`repro.offload.arena_gen` is its arena back end.  Everything that
depends on a scalar's kind comes from the :mod:`repro.proto.kinds` table.
See ``docs/DECODER.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .descriptor import FieldDescriptor, FieldType, MessageDescriptor
from .deserializer import DecodeError, skip_field
from .kinds import EXPR_NAMESPACE, KINDS, bulk_raw, wire_type_of
from .message import Message, MessageFactory, _RepeatedField
from .serializer import EncodeError, _tag_cache
from .utf8 import Utf8Error
from .wire_format import (
    TruncatedMessageError,
    WireFormatError,
    WireType,
    append_varint,
    decode_packed_varints,
    encode_packed_varints_bulk,
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
    "READ_VARINT",
    "read_length",
    "read_fixed",
    "tag_loop",
    "loop_namespace",
    "unknown_field",
    "compile_codec",
    "decode_source",
    "encode_source",
    "generate_codec_module",
]

#: Packed runs shorter than this encode through the scalar loop — below it
#: the NumPy array round-trip costs more than it saves.  Both paths are
#: byte-identical; the threshold is purely a performance crossover.
#: Re-measured with the four-step kernel: bulk costs ~13 us flat to n = 32,
#: the loop ~0.3 us per 1-5 byte value and ~1 us per ten-byte (negative)
#: one: they cross at n = 14 and n = 45; 16 errs by < 10 us either way.
_BULK_MIN = 16


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


class _SourceBuilder:
    """Accumulates indented source lines."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, indent: int, *lines: str) -> None:
        pad = "    " * indent
        for ln in lines:
            self.lines.append(pad + ln if ln else ln)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# The tag loop, said once for both decode back ends
# ---------------------------------------------------------------------------
#
# A generated tag-wire decoder is :func:`tag_loop`'s frame around per-field
# branches built from three wire reads.  :func:`decode_source` below (values
# into a ``Message``) and :mod:`repro.offload.arena_gen` (stores into an arena
# object) supply the branches — what to *do* with a value; neither writes the
# loop, a read, the cold path or the compile step again.  These are plain
# functions returning source lines: nothing here asks which back end called.

#: One varint into ``raw``, single-byte fast path.
READ_VARINT = (
    "if pos >= end:",
    "    raise _Trunc('varint extends past end of buffer')",
    "b = buf[pos]",
    "if b < 0x80:",
    "    raw = b",
    "    pos += 1",
    "else:",
    "    raw, pos = _rv(buf, pos)",
)


def read_length(what: str) -> list[str]:
    """A length prefix: leaves the ``n`` payload bytes at ``buf[pos:npos]``,
    proven inside the enclosing message."""
    return [
        "n, pos = _rv(buf, pos)",
        "npos = pos + n",
        "if npos > end:",
        f"    raise _Trunc('{what} extends past end')",
    ]


def read_fixed(width: int) -> list[str]:
    """A fixed-width value: leaves its bytes at ``buf[pos:npos]``."""
    return [
        f"npos = pos + {width}",
        "if npos > end:",
        "    raise _Trunc('fixed-width value extends past end')",
    ]


def unknown_field(known: dict[int, str], error, buf, tag: int, pos: int, end: int) -> int:
    """The cold path — ``tag`` matched no branch.  A genuinely unknown
    field is skipped (bounded by the enclosing message) and the position
    after it returned; a ``known`` field (number -> qualified name) on a
    wire type it has no branch for is the back end's ``error``."""
    number = tag >> 3
    wire_type = tag & 0x7
    if number == 0:
        raise WireFormatError("field number 0 is invalid")
    if not WireType.is_valid(wire_type):
        raise WireFormatError(f"unsupported wire type {wire_type}")
    if number in known:
        raise error(f"{known[number]}: wire type {wire_type} cannot carry this field")
    return skip_field(buf, pos, wire_type, end)


def loop_namespace(full_name: str, error, fields) -> dict:
    """The names the frame, the reads and the kind table's expressions
    refer to; a back end adds what its own branches need.  ``fields``
    (anything with ``.number`` and ``.name``) are the message's known
    fields, for the cold path."""
    return {
        **EXPR_NAMESPACE,
        "_rv": read_varint,
        "_dpv": decode_packed_varints,
        "_unk": unknown_field,
        "_known": {f.number: f"{full_name}.{f.name}" for f in fields},
        "_FULL": full_name,
        "_DE": error,
        "_Trunc": TruncatedMessageError,
        "_Wfe": WireFormatError,
    }


def tag_loop(
    header: list[str],
    setup: list[str],
    each_tag: list[str],
    branches: list[tuple[int, str, list[str]]],
    after_unknown: list[str],
    caught: str,
    tail: list[str],
) -> str:
    """The decoder's source.  ``header`` is the comment and ``def`` line,
    ``setup`` runs once, ``each_tag`` before every tag; ``branches`` are
    ``(tag, field_name, body)`` and become an ``if/elif`` chain over
    integer literals with the cold path in the ``else`` (followed by
    ``after_unknown``); an exception of the ``caught`` classes raised
    inside a branch is re-raised as ``_DE`` naming the field; ``tail``
    runs once the loop ended exactly at ``end``."""
    b = _SourceBuilder()
    b.add(0, *header)
    b.add(1, *setup, "fname = None", "try:")
    b.add(2, "while pos < end:")
    b.add(3,
          "fname = None",
          *each_tag,
          "b = buf[pos]",
          "if b < 0x80:",
          "    tag = b",
          "    pos += 1",
          "else:",
          "    tag, pos = _rv(buf, pos)")
    kw = "if"
    for tag, fname, body in branches:
        b.add(3, f"{kw} tag == {tag}:  # {fname}")
        b.add(4, f"fname = {fname!r}", *body)
        kw = "elif"
    if branches:
        b.add(3, "else:")
    b.add(4 if branches else 3, "pos = _unk(_known, _DE, buf, tag, pos, end)", *after_unknown)
    b.add(1,
          f"except {caught} as exc:",
          "    if fname is None:",
          "        raise",
          "    raise _DE(f'{_FULL}.{fname}: {exc}') from exc",
          "if pos != end:",
          "    raise _DE(_FULL + ': field payload overran message end')",
          *tail)
    return b.source()


_compile_depth = 0


def compile_codec(generate, filename: str, metrics, cache: dict | None = None):
    """The one place generated codec source becomes code: ``generate()``
    gives ``(source, namespace)``, the source is compiled and executed in
    the namespace, and the compile is accounted in ``metrics``
    (``gen_compile_ns`` for the outermost compile only — a nested child's
    is inside its parent's span).  Returns ``(source, namespace)``.

    ``cache`` is the dict the caller put the in-flight codec into *before*
    calling, so that a recursive message type resolves to the codec being
    built.  Whatever goes wrong — an interrupt included — empties it, or
    later lookups would return a codec with no code: the in-flight one,
    or one compiled inside this call that refers to it (mutual
    recursion).  The cache refills on demand."""
    global _compile_depth
    t0 = time.perf_counter_ns()
    _compile_depth += 1
    try:
        source, ns = generate()
        exec(compile(source, filename, "exec"), ns)
    except BaseException:
        if cache is not None:
            cache.clear()
        raise
    finally:
        _compile_depth -= 1
    metrics.gen_compiles += 1
    metrics.gen_source_bytes += len(source)
    if _compile_depth == 0:
        metrics.gen_compile_ns += time.perf_counter_ns() - t0
    return source, ns


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


def _siblings_of(descriptor: MessageDescriptor, fd: FieldDescriptor) -> tuple[str, ...]:
    if fd.containing_oneof is None:
        return ()
    return tuple(
        other.name
        for other in descriptor.fields
        if other.containing_oneof == fd.containing_oneof and other.name != fd.name
    )


def _decode_branches(
    descriptor: MessageDescriptor, factory: MessageFactory, ns: dict
) -> list[tuple[int, str, list[str]]]:
    """Per-field decode branches: ``(tag, field_name, body_lines)`` — a
    shared read, then what a ``Message`` does with the value."""
    branches: list[tuple[int, str, list[str]]] = []
    for i, fd in enumerate(descriptor.fields):
        t = fd.type
        name = fd.name
        if fd.is_repeated:
            ns[f"_fd{i}"] = fd
            head = [
                f"lst = values.get({name!r})",
                "if lst is None:",
                f"    lst = _RF(_fd{i}, _F)",
                f"    values[{name!r}] = lst",
            ]
            store, after = "_la(lst, {})", []
        else:
            head = []
            store = f"values[{name!r}] = {{}}"
            after = [f"values.pop({s!r}, None)" for s in _siblings_of(descriptor, fd)]

        if t is FieldType.MESSAGE:
            ns[f"_c{i}"] = get_gen_decoder(fd.message_type, factory)
            ns[f"_cls{i}"] = factory.get_class(fd.message_type)
            if fd.is_repeated:
                body = head + read_length("submessage") + [
                    f"sub = _cls{i}()",
                    f"_c{i}.decode_into(sub, buf, pos, npos)",
                    "_la(lst, sub)",
                ]
            else:  # proto3 merge: a second occurrence decodes into the first
                body = read_length("submessage") + [
                    f"sub = values.get({name!r})",
                    "if sub is None:",
                    f"    sub = _cls{i}()",
                    f"    values[{name!r}] = sub",
                    f"_c{i}.decode_into(sub, buf, pos, npos)",
                ]
            body.append("pos = npos")
        elif t is FieldType.STRING:
            body = head + read_length("string") + [
                "try:",
                "    " + store.format("str(buf[pos:npos], 'utf-8')"),
                "except UnicodeDecodeError as exc:",
                "    raise _U8(str(exc)) from None",
            ] + after + ["pos = npos"]
        elif t is FieldType.BYTES:
            body = head + read_length("bytes") + [
                store.format("bytes(buf[pos:npos])"), *after, "pos = npos",
            ]
        else:
            kind = KINDS[t]
            if kind.width:
                ns[f"_u{i}"] = kind.codec.unpack_from
                ns[f"_dt{i}"] = kind.dtype
                body = head + read_fixed(kind.width) + [
                    store.format(f"_u{i}(buf, pos)[0]"), *after, "pos = npos",
                ]
                run = [
                    f"if n % {kind.width}:",
                    "    raise _Wfe('packed run length mismatch')",
                    f"_le(lst, _np.frombuffer(buf[pos:npos], _dt{i}).tolist())",
                ]
            else:
                body = [*head, *READ_VARINT, store.format(kind.from_raw), *after]
                run = [
                    "raw = _dpv(buf[pos:npos])",
                    f"_le(lst, ({kind.from_raw_array}).tolist())",
                ]
            if fd.is_repeated:  # packed and unpacked are interchangeable on decode
                branches.append((
                    make_tag(fd.number, WireType.LENGTH_DELIMITED), name,
                    head + read_length("packed run") + run + ["pos = npos"],
                ))
        branches.append((make_tag(fd.number, wire_type_of(t)), name, body))
    return branches


def decode_source(descriptor: MessageDescriptor, factory: MessageFactory) -> tuple[str, dict]:
    """Build the decode function source plus its exec namespace: the
    shared loop with the ``Message`` back end's branches.  Unknown fields
    are preserved (proto3 >= 3.5), so this back end remembers where each
    tag started."""
    full_name = descriptor.full_name
    ns = loop_namespace(full_name, DecodeError, descriptor.fields)
    ns.update(_RF=_RepeatedField, _F=factory, _la=list.append, _le=list.extend, _U8=Utf8Error)
    source = tag_loop(
        [f"# generated decoder for {full_name}", "def _decode(msg, buf, pos, end):"],
        setup=["values = msg._values"],
        each_tag=["tag_start = pos"],
        branches=_decode_branches(descriptor, factory, ns),
        after_unknown=["msg._unknown += bytes(buf[tag_start:pos])"],
        caught="(_Wfe, _U8)",
        tail=["return pos"],
    )
    return source, ns


def get_gen_decoder(descriptor: MessageDescriptor, factory: MessageFactory) -> GeneratedDecoder:
    """The cached generated decoder for ``descriptor`` under ``factory``
    (generating + compiling on first use)."""
    cache = factory.__dict__.get("_gen_decoders")
    if cache is None:
        cache = {}
        factory._gen_decoders = cache
    codec = cache.get(descriptor.full_name)
    if codec is not None:
        PLAN_METRICS.gen_cache_hits += 1
        return codec
    # In the cache before generating: a recursive message type resolves
    # to this in-flight codec (decode_into binds by attribute at call time).
    codec = cache[descriptor.full_name] = GeneratedDecoder(descriptor)
    codec.source, ns = compile_codec(
        lambda: decode_source(descriptor, factory),
        f"<gen_decode {descriptor.full_name}>",
        PLAN_METRICS,
        cache,
    )
    codec.decode_into = ns["_decode"]
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


def _packed_run_encoder(fd: FieldDescriptor):
    """Returns ``encode(values) -> bytes`` producing the packed payload of
    one repeated numeric field, byte-identical to the interpretive
    per-element loop."""
    t = fd.type
    kind = KINDS[t]
    if kind.width:
        dtype = kind.dtype
        packer = kind.codec
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

    to_raw = kind.to_raw_fn
    if t is FieldType.BOOL:
        # Booleans are single-byte varints; the uint8 buffer IS the run.
        return lambda vals: bytes(vals)

    def encode(vals) -> bytes:
        if len(vals) < _BULK_MIN:
            out = bytearray()
            for v in vals:
                append_varint(out, to_raw(v))
            return bytes(out)
        return encode_packed_varints_bulk(bulk_raw(t, vals))

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
                    f"    total += _vs({KINDS[t].to_raw.format(v='e')})",
                ]
                emit_lines = [
                    "for e in v:",
                    f"    buf[pos:pos + {tag_len}] = _t{i}",
                    f"    pos = _wv(buf, pos + {tag_len}, {KINDS[t].to_raw.format(v='e')})",
                ]
            else:  # unpacked fixed-width ([packed = false])
                packer = KINDS[t].codec
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
            size_lines = [f"total += {tag_len} + _vs({KINDS[t].to_raw.format(v='v')})"]
            emit_lines = [
                f"buf[pos:pos + {tag_len}] = _t{i}",
                f"pos = _wv(buf, pos + {tag_len}, {KINDS[t].to_raw.format(v='v')})",
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
            packer = KINDS[t].codec
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
    b = _SourceBuilder()
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
    cache = factory.__dict__.get("_gen_encoders")
    if cache is None:
        cache = {}
        factory._gen_encoders = cache
    codec = cache.get(descriptor.full_name)
    if codec is not None:
        ENCODE_PLAN_METRICS.gen_cache_hits += 1
        return codec
    codec = cache[descriptor.full_name] = GeneratedEncoder(descriptor)
    codec.source, ns = compile_codec(
        lambda: encode_source(descriptor, factory),
        f"<gen_encode {descriptor.full_name}>",
        ENCODE_PLAN_METRICS,
        cache,
    )
    codec._size = ns["_size"]
    codec._emit = ns["_emit"]
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
