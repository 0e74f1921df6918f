"""Generated per-type codecs — the compiled tier: straight-line source,
nothing selected at run time.

The reference serializer/deserializer (:mod:`repro.proto.serializer`,
:mod:`repro.proto.deserializer`) is interpretive: every field pays a
``field_by_number`` lookup, a wire-type comparison chain and the generic
attribute protocol of :class:`~repro.proto.message.Message` — the
per-field overhead the paper's custom deserializer removes by resolving
the schema *once* (§V-B).  This module is that resolution, in the
protoc/nanopb idiom: for each
:class:`~repro.proto.descriptor.MessageDescriptor` it emits one
straight-line decode function and one encode function (tags, unpackers,
oneof sibling pops and proto3 defaults as source constants), compiles
them and caches them on the owning
:class:`~repro.proto.message.MessageFactory`.

Decoding is one ``while`` loop whose tag dispatch is an ``if/elif``
chain over integer literals; a varint of up to five bytes is read inline
(:func:`read_varint` is the cold path), a length-delimited payload is
copied once, packed runs go through one NumPy kernel.  Encoding is the
protoc scheme: a *size* pass that parks every submessage length in a
memo, then an *emit* pass into a caller-provided buffer — so the
datapath reserves exactly ``size`` bytes in a block or frame and has the
wire bytes written there (each such emission bumps
``ENCODE_PLAN_METRICS.copies_avoided``).

Both generated paths are behaviorally identical to the interpretive
reference — same values, unknown bytes and error classes — which the
differential suites enforce; ``generated`` is the default of every
``mode=`` argument, ``"interpretive"`` selects the oracle.  Cache
traffic, compile cost and codec volume are :data:`PLAN_METRICS` and
:data:`ENCODE_PLAN_METRICS`, read by a registry at scrape time.

The tag-wire decoder is said once, in the "tag loop" section below: the
frame, the wire reads a branch is built from, the cold path for a tag no
branch matched and the compile step.  :func:`decode_source` is its
``Message`` back end, :mod:`repro.offload.arena_gen` its arena back end;
everything that depends on a scalar's kind comes from
:mod:`repro.proto.kinds`.  See ``docs/DECODER.md``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.metrics.registry import Family, gauge

from .descriptor import FieldDescriptor, FieldType, MessageDescriptor
from .deserializer import DecodeError, skip_field
from .kinds import EXPR_NAMESPACE, KINDS, bulk_raw, wire_type_of
from .message import Message, MessageFactory, _RepeatedField
from .serializer import _tag_cache, check_room
from .utf8 import Utf8Error
from .wire_format import (
    MAX_NESTING_DEPTH,
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
    "CodecMetrics",
    "PLAN_METRICS",
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
# idiom), read by a :class:`~repro.metrics.registry.MetricsRegistry` at
# scrape time through ``collect``.  ``gen_compile_ns`` counts
# outermost compiles only — a nested child compile is inside its parent's
# span.


class CodecMetrics:
    """One direction's generated-codec counters: cache traffic, compile
    cost, and volume per message type.  Every key of ``counters`` becomes
    a plain-int attribute and a ``<prefix>_<counter>`` family (the value is
    the family's help text); the per-type count dict is the attribute
    ``per_message`` names (``decodes`` / ``encodes``) and the
    ``<prefix>_<per_message>{message=...}`` family."""

    def __init__(self, prefix: str, per_message: str, noun: str, counters: dict[str, str]) -> None:
        self._prefix = prefix
        self._per_message = per_message
        self._help = {
            **counters,
            "gen_compiles": f"generated {noun}s compiled",
            "gen_cache_hits": f"generated-{noun} cache hits",
            "gen_source_bytes": f"generated {noun} source bytes",
            "gen_compile_ns": f"ns spent generating + compiling {noun}s",
        }
        #: codec runs per message type, aggregated across factories
        setattr(self, per_message, {})
        self.reset()

    def reset(self) -> None:
        for name in self._help:
            setattr(self, name, 0)
        getattr(self, self._per_message).clear()

    def collect(self):
        """This direction's metric families, read from the counters now."""
        prefix, per_message = self._prefix, self._per_message
        for name, text in self._help.items():
            yield gauge(f"{prefix}_{name}", text, getattr(self, name))
        yield Family(f"{prefix}_{per_message}", f"generated-codec message {per_message}",
                     "gauge", ("message",),
                     {(full_name,): count
                      for full_name, count in getattr(self, per_message).items()})


#: Process-wide codec metrics.  The names (and the ``decode_plan_*`` /
#: ``encode_plan_*`` family prefixes) predate the removal of the
#: closure-table plan tier and are kept so scrapes stay comparable.  The
#: reference decoders of :func:`get_gen_decoder` and the arena decoders of
#: :class:`~repro.offload.arena_gen.ArenaGenCache` both feed the first.
PLAN_METRICS = CodecMetrics("decode_plan", "decodes", "decoder", {})
#: ``copies_avoided`` counts direct emissions into caller-provided buffers
#: (``serialize_into`` / ``SizedMessage.emit_into``) — each one is a
#: full-payload ``bytes`` materialization the interpretive pipeline would
#: have performed.
ENCODE_PLAN_METRICS = CodecMetrics("encode_plan", "encodes", "encoder", {
    "bytes_emitted": "wire bytes emitted by generated encoders",
    "copies_avoided": "full-payload copies avoided by direct buffer emission",
})


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

def inline_varint(var: str, past_end: str) -> list[str]:
    """One varint into ``var``, read inline while five bytes remain
    before ``end``; :func:`read_varint` reads a longer one and one near
    ``end``.  ``past_end`` is the line run at ``end``."""
    lines = ["if pos >= end:", f"    {past_end}", "elif (b := buf[pos]) < 0x80:",
             f"    {var} = b", "    pos += 1", "elif pos + 5 <= end:"]
    value, kw = "b - 0x80", "if"
    for i in range(1, 5):
        lines += [f"    {kw} (b{i} := buf[pos + {i}]) < 0x80:",
                  f"        {var} = {value} | b{i} << {7 * i}", f"        pos += {i + 1}"]
        value, kw = f"{value} | b{i} - 0x80 << {7 * i}", "elif"
    return lines + ["    else:", f"        {var}, pos = _rv(buf, pos)",
                    "else:", f"    {var}, pos = _rv(buf, pos)"]


#: One varint value into ``raw``; past the end it is truncated.
READ_VARINT = tuple(inline_varint("raw", "raise _Trunc('varint extends past end of buffer')"))


#: The one nesting limit, checked before descending to ``depth + 1``.
DESCEND = (
    f"if depth >= {MAX_NESTING_DEPTH}:",
    f"    raise _Wfe('messages nest deeper than {MAX_NESTING_DEPTH}')",
)


def read_length(what: str) -> list[str]:
    """A length prefix: leaves the ``n`` payload bytes at ``buf[pos:npos]``,
    proven inside the enclosing message."""
    return [
        *inline_varint("n", "n, pos = _rv(buf, pos)"),
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
    flush: list[str],
    tail: list[str],
) -> str:
    """The decoder's source.  ``header`` is the comment and ``def`` line,
    ``setup`` runs once, ``each_tag`` before every tag; ``branches`` are
    ``(tag, field_name, body)`` and become an ``if/elif`` chain over
    integer literals with the cold path in the ``else`` (followed by
    ``after_unknown``); an exception of the ``caught`` classes raised
    inside a branch is re-raised as ``_DE`` naming the field; ``flush``
    runs once however the loop ends (what the branches kept in locals
    is stored), ``tail`` once it ended exactly at ``end``."""
    b = _SourceBuilder()
    # the field a branch tag names, for the error raised inside its branch
    b.add(0, f"_FIELDS = {({tag: fname for tag, fname, _ in branches})!r}", *header)
    b.add(1, *setup, "tag = 0", "try:")
    b.add(2, "while pos < end:")
    b.add(3,
          *each_tag,
          "if (b := buf[pos]) < 0x80:",
          "    tag = b",
          "    pos += 1",
          "else:",
          "    tag = 0  # (a tag that fails to read names no field)",
          "    tag, pos = _rv(buf, pos)")
    kw = "if"
    for tag, fname, body in branches:
        b.add(3, f"{kw} tag == {tag}:  # {fname}")
        b.add(4, *body)
        kw = "elif"
    if branches:
        b.add(3, "else:")
    b.add(4 if branches else 3, "pos = _unk(_known, _DE, buf, tag, pos, end)", *after_unknown)
    b.add(1,
          f"except {caught} as exc:",
          "    fname = _FIELDS.get(tag)",
          "    if fname is None:",
          "        raise",
          "    raise _DE(f'{_FULL}.{fname}: {exc}') from exc",
          *(["finally:", *_indented(flush)] if flush else ()),
          "if pos != end:",
          "    raise _DE(_FULL + ': field payload overran message end')",
          *tail)
    return b.source()


_compile_depth = 0


def compile_codec(generate, filename: str, metrics, cache: dict | None = None):
    """The one place generated codec source becomes code: ``generate()``
    gives ``(source, namespace)``, the source is compiled and executed in
    the namespace and accounted in ``metrics`` (``gen_compile_ns`` for the
    outermost compile only); returns ``(source, namespace)``.  ``cache``
    holds the in-flight codec (a recursive type resolves to it); whatever
    goes wrong, an interrupt included, empties it — else later lookups
    would find a codec with no code — and it refills on demand."""
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

    __slots__ = ("full_name", "descriptor", "source", "decode_into")

    def __init__(self, descriptor: MessageDescriptor) -> None:
        self.full_name = descriptor.full_name
        self.descriptor = descriptor
        self.source = ""
        #: ``decode_into(msg, buf, pos, end, depth=1)`` — the compiled function.
        self.decode_into = None

    def parse(self, msg, buf, pos: int, end: int) -> None:
        """Top-level entry: one wire message (counts toward metrics)."""
        decodes = PLAN_METRICS.decodes
        decodes[self.full_name] = decodes.get(self.full_name, 0) + 1
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
            # (a message without a sub-message never looks at the depth)
            descend = [*DESCEND, f"_c{i}.decode_into(sub, buf, pos, npos, depth + 1)"]
            if fd.is_repeated:
                body = head + read_length("submessage") + [
                    f"sub = _cls{i}()", *descend, "_la(lst, sub)",
                ]
            else:  # proto3 merge: a second occurrence decodes into the first
                body = read_length("submessage") + [
                    f"sub = values.get({name!r})",
                    "if sub is None:",
                    f"    sub = _cls{i}()",
                    f"    values[{name!r}] = sub",
                    *descend,
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
        [f"# generated decoder for {full_name}", "def _decode(msg, buf, pos, end, depth=1):"],
        setup=["values = msg._values"],
        each_tag=["tag_start = pos"],
        branches=_decode_branches(descriptor, factory, ns),
        after_unknown=["msg._unknown += bytes(buf[tag_start:pos])"],
        caught="(_Wfe, _U8)",
        flush=[],
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

    Building one runs the size pass (:meth:`GeneratedEncoder.measure`)
    and retains its per-submessage length memo, so the caller can
    first reserve ``size`` bytes at the destination (a block payload slot,
    a frame buffer) and then :meth:`emit_into` it — the emit pass never
    re-measures anything.  The message must not be mutated in between.
    """

    __slots__ = ("encoder", "msg", "size", "_memo")

    def __init__(self, encoder: "GeneratedEncoder", msg: Message) -> None:
        self.encoder = encoder
        self.msg = msg
        self._memo = memo = {}
        self.size = encoder._size(msg, memo)

    def emit_into(self, buf, offset: int = 0) -> int:
        """Write the wire bytes into ``buf`` at ``offset``; returns the end
        position.  Counts as one avoided full-payload copy.  Raises
        :class:`~repro.proto.serializer.EncodeError`, ``buf`` untouched,
        if the message does not fit there."""
        check_room(buf, offset, self.size)
        end = self.encoder._emit_counted(self.msg, buf, offset, self._memo)
        ENCODE_PLAN_METRICS.copies_avoided += 1
        return end

    def to_bytes(self) -> bytes:
        """Materialize the wire bytes (no copy avoided)."""
        out = bytearray(self.size)
        self.encoder._emit_counted(self.msg, out, 0, self._memo)
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

    def _emit_counted(self, msg: Message, buf, pos: int, memo: dict) -> int:
        """``_emit`` plus the volume counters — the one counted emit every
        entry point here and on :class:`SizedMessage` leaves through, room
        at ``pos`` already established."""
        end = self._emit(msg, buf, pos, memo)
        metrics = ENCODE_PLAN_METRICS
        encodes, full_name = metrics.encodes, self.full_name
        encodes[full_name] = encodes.get(full_name, 0) + 1
        metrics.bytes_emitted += end - pos
        return end

    def serialized_size(self, msg: Message) -> int:
        """Exact serialized size (one size pass, memo discarded)."""
        return self._size(msg, {})

    def measure(self, msg: Message) -> SizedMessage:
        """Run the size pass now, emit later (see :class:`SizedMessage`)."""
        return SizedMessage(self, msg)

    def serialize(self, msg: Message) -> bytes:
        """Serialize ``msg`` to a fresh ``bytes`` object (the fused form of
        ``measure(msg).to_bytes()``: no :class:`SizedMessage` is built)."""
        memo: dict = {}
        size = self._size(msg, memo)
        out = bytearray(size)
        self._emit_counted(msg, out, 0, memo)
        return bytes(out)


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


# An encoder is two passes over the set fields in field-number order, and a
# field's share of them is a ``(size lines, emit lines)`` pair.  Two fragments
# make every pair — a length-delimited element and a tagged scalar — and a
# repeated field is a loop around its element's fragment.  Plain functions
# returning source lines, as on the decode side.


def _indented(lines) -> list[str]:
    return ["    " + ln for ln in lines]


def _store_run(x: str) -> list[str]:
    """Emit lines copying the byte run ``x`` to ``buf[pos:]``."""
    return [f"end = pos + len({x})", f"buf[pos:end] = {x}", "pos = end"]


def _delimited(tag: str, tag_len: int, x: str, child: tuple[str, str, str] | None = None):
    """One length-delimited element ``x``: tag, varint length, payload.
    The payload is the byte run ``x`` itself or, with ``child = (size
    callable, emit callable, length expression)``, a submessage: the size
    pass parks its measured length in the memo, where the emit pass's
    ``length expression`` finds it."""
    if child is None:
        measure, length, payload = [f"n = len({x})"], f"len({x})", _store_run(x)
    else:
        size_fn, emit_fn, length = child
        measure = [f"n = {size_fn}({x}, memo)", f"memo[id({x})] = n"]
        payload = [f"pos = {emit_fn}({x}, buf, pos, memo)"]
    size = [*measure, f"total += {tag_len} + _vs(n) + n"]
    emit = [
        f"buf[pos:pos + {tag_len}] = {tag}",
        f"pos = _wv(buf, pos + {tag_len}, {length})",
        *payload,
    ]
    return size, emit


def _tagged_scalar(tag: str, tag_len: int, kind, x: str, pack: str, known_true: bool):
    """One tagged scalar ``x``.  Its size is a constant plus, for a varint,
    an expression in ``x``, so the pair comes as ``((constant, expression
    or None), emit lines)`` and a repeated field can count the constant
    part once.  ``pack`` names the fixed-width store; ``known_true`` says
    ``x`` is a bool the guard already found set, i.e. the byte 1."""
    store = f"buf[pos:pos + {tag_len}] = {tag}"
    if known_true:
        return (tag_len + 1, None), [store, f"buf[pos + {tag_len}] = 1", f"pos += {tag_len + 1}"]
    if kind.width:
        step = tag_len + kind.width
        return (step, None), [store, f"{pack}(buf, pos + {tag_len}, {x})", f"pos += {step}"]
    raw = kind.to_raw.format(v=x)
    return (tag_len, f"_vs({raw})"), [store, f"pos = _wv(buf, pos + {tag_len}, {raw})"]


def _memoized(var: str, expr: str, pair):
    """``pair`` with ``var`` computed once: the size pass evaluates
    ``expr`` and parks it in the memo, the emit pass picks it up."""
    size, emit = pair
    return [f"{var} = {expr}", f"memo[id(v)] = {var}", *size], [f"{var} = memo[id(v)]", *emit]


def _repeated(x: str, pair, size_over: str = "v", emit_over: str = "v"):
    """``pair`` once per element ``x`` of what each pass iterates."""
    size, emit = pair
    return (
        [f"for {x} in {size_over}:", *_indented(size)],
        [f"for {x} in {emit_over}:", *_indented(emit)],
    )


def _encode_field_fragments(
    descriptor: MessageDescriptor, factory: MessageFactory, ns: dict
) -> list[tuple[list[str], list[str], list[str]]]:
    """Per-field ``(guard_lines, size_lines, emit_lines)`` in field-number
    order — ``ListFields`` semantics, as source: the guard binds ``v`` and
    tests that the field is set, the other two are its share of the passes."""
    out = []
    for i, fd in enumerate(descriptor.fields_sorted()):
        t = fd.type
        rep = fd.is_repeated
        tag_bytes, packed_tag_bytes, tag_len = _tag_cache(fd)
        tag = f"_t{i}"
        ns[tag] = bytes(tag_bytes)
        if rep:
            present = " and len(v)"
        elif t is FieldType.MESSAGE:
            present = ""
        else:
            present = f" and v != {fd.default_value()!r}"

        if t is FieldType.MESSAGE:
            ns[f"_e{i}"] = get_gen_encoder(fd.message_type, factory)
            if rep:
                size, emit = _repeated(
                    "e", _delimited(tag, tag_len, "e", ("child", "child", "memo[id(e)]"))
                )
                size.insert(0, f"child = _e{i}._size")
                emit.insert(0, f"child = _e{i}._emit")
            else:
                size, emit = _delimited(tag, tag_len, "v", (f"_e{i}._size", f"_e{i}._emit", "n"))
                emit.insert(0, "n = memo[id(v)]")
        elif t is FieldType.STRING:
            if rep:  # every element is encoded once, in the size pass
                size, emit = _repeated("d", _delimited(tag, tag_len, "d"), "datas", "memo[id(v)]")
                size = ["datas = [e.encode('utf-8') for e in v]", "memo[id(v)] = datas", *size]
            else:
                size, emit = _memoized("data", "v.encode('utf-8')", _delimited(tag, tag_len, "data"))
        elif t is FieldType.BYTES:
            if rep:
                size, emit = _repeated("d", _delimited(tag, tag_len, "d"))
            else:
                size, emit = _delimited(tag, tag_len, "v")
        elif rep and fd.is_packed and not getattr(fd, "force_unpacked", False):
            ns[f"_run{i}"] = _packed_run_encoder(fd)
            ns[f"_pt{i}"] = bytes(packed_tag_bytes)
            size, emit = _memoized("run", f"_run{i}(v)", _delimited(f"_pt{i}", tag_len, "run"))
        else:
            kind = KINDS[t]
            if kind.width:
                ns[f"_p{i}"] = kind.codec.pack_into
            (const, varying), emit = _tagged_scalar(
                tag, tag_len, kind, "e" if rep else "v", f"_p{i}",
                known_true=t is FieldType.BOOL and not rep,
            )
            if not rep:
                size = [f"total += {const} + {varying}" if varying else f"total += {const}"]
            else:  # unpacked ([packed = false]): the constant part is counted once
                size, emit = _repeated("e", ([f"total += {varying}"], emit))
                size = [f"total += len(v) * {const}", *(size if varying else ())]
        guard = [f"v = values.get({fd.name!r})", f"if v is not None{present}:"]
        out.append((guard, size, emit))
    return out


def encode_source(descriptor: MessageDescriptor, factory: MessageFactory) -> tuple[str, dict]:
    """Build the ``_size``/``_emit`` source pair plus its namespace."""
    ns: dict = {"_vs": varint_size, "_wv": write_varint}
    fields = _encode_field_fragments(descriptor, factory, ns)
    b = _SourceBuilder()

    def one_pass(header: str, first: list[str], shares, last: list[str]) -> None:
        """One pass's frame: every field that is set contributes its share."""
        b.add(0, header)
        b.add(1, *first)
        for guard, share in shares:
            b.add(1, *guard)
            b.add(2, *share)
        b.add(1, *last)

    b.add(0, f"# generated encoder for {descriptor.full_name}")
    one_pass(
        "def _size(msg, memo):",
        ["values = msg._values", "total = len(msg._unknown)"],
        [(guard, size) for guard, size, _ in fields],
        ["return total"],
    )
    b.add(0, "")
    one_pass(
        "def _emit(msg, buf, pos, memo):",
        ["values = msg._values"],
        [(guard, emit) for guard, _, emit in fields],
        ["unknown = msg._unknown", "if unknown:", *_indented(_store_run("unknown")), "return pos"],
    )
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
