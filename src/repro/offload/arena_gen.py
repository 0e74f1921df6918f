"""Generated per-ADT-entry decoders for the offloaded arena deserializer.

The arena back end of the one tag-loop generator in
:mod:`repro.proto.gen_codec`: the frame, the three wire reads, the cold
path and the compile step are that module's; the raw → value expressions
are the :mod:`repro.proto.kinds` table's.  What is written here is what an
arena object does with a value.  Everything the interpretive
:class:`ArenaDeserializer` resolves per field — the ``field_by_number``
probe, the kind ladder, the has-bit word arithmetic — is resolved once
per :class:`~repro.offload.adt.AdtEntry` at compile time and burned into
the source as literals:

* member offsets and precompiled ``struct.Struct`` packers for varint
  scalars (fixed-width scalars memcpy their wire bytes verbatim — the
  in-object representation *is* the little-endian wire representation);
* the has-bit byte offset and mask as plain ints;
* oneof sibling restore recipes (default-instance slot slices + has-bit
  clear masks) as straight-line stores;
* the child entry index for message fields.

An object's memory is checked once, then stored to: the decoder places
its object (or takes the one a first occurrence built), bounds-checks
``[obj, obj + sizeof)`` and keeps the region's buffer ``mem`` and the
object's offset ``o`` in it; every in-object store is
``mem[o + LITERAL ...]`` with the literal proven ``< sizeof`` at compile
time (``check_entry_layout``) and every slice store the exact width of
its slot — a wrong-length slice store raises on both stores a region
has (``IndexError`` on its ``mmap``, ``ValueError`` on a shared-memory
view) after nothing was stored, so it must be impossible by
construction.

Decoders are compiled lazily per entry and cached on the
:class:`ArenaGenCache` owned by the deserializer, keyed by ADT index;
cache traffic feeds the shared
:data:`repro.proto.gen_codec.PLAN_METRICS`.

The generated path preserves the interpretive path's
:class:`~repro.offload.arena_deserializer.DeserializeStats` census
exactly — the calibrated cost model converts that census into CPU/DPU
time, so both paths must charge identical operation counts for the same
wire bytes.  Repeated-field materialization and string crafting delegate
to the deserializer's existing composite writers for the same reason.
"""

from __future__ import annotations

import struct

from repro.abi import PRIMITIVES
from repro.proto.descriptor import FieldType
from repro.proto.gen_codec import (
    DESCEND,
    PLAN_METRICS,
    READ_VARINT,
    compile_codec,
    loop_namespace,
    read_fixed,
    read_length,
    tag_loop,
)
from repro.proto.kinds import KINDS, wire_type_of
from repro.proto.utf8 import validate_utf8
from repro.proto.wire_format import WireType, make_tag

from .adt import AdtEntry
from .arena_deserializer import HASBITS_OFFSET, DeserializeError

__all__ = ["ArenaGenCache"]


class ArenaGenCache:
    """Per-deserializer store of generated decoders, keyed by ADT entry
    index.

    Each entry's decoder is one compiled straight-line function that
    places its object and decodes into it — the interpretive
    ``_parse_message`` / ``_parse_into`` in one; a message field calls
    its child's.  Charges the exact
    :class:`~repro.offload.arena_deserializer.DeserializeStats` census the
    interpretive path charges.
    """

    def __init__(self, deser) -> None:
        self.deser = deser
        self.stats = deser.stats
        #: ADT index -> compiled decoder, None until its first use
        self.decoders: list = [None] * len(deser.adt.entries)
        self._sources: list[str | None] = [None] * len(deser.adt.entries)

    # -- cache ---------------------------------------------------------------

    def decoder(self, index: int):
        fn = self.decoders[index]
        if fn is None:
            fn = self.compile(index)
        else:
            PLAN_METRICS.gen_cache_hits += 1
        return fn

    def source(self, index: int) -> str:
        self.decoder(index)
        return self._sources[index]

    # -- source generation ---------------------------------------------------

    def _field_branches(self, entry: AdtEntry, ns: dict) -> list[tuple[int, str, list[str]]]:
        """Per-field branches — a shared read, then what an arena object
        does with the value: a store at a literal offset plus the has-bit
        byte (singular, after restoring any oneof siblings), or a chunk
        kept in ``pending`` for ``_materialize_repeated`` (repeated), and
        the ``DeserializeStats`` census either way."""
        deser = self.deser
        branches: list[tuple[int, str, list[str]]] = []
        for i, f in enumerate(entry.fields):
            kind = f.kind
            number = f.number
            offset = f.offset
            keep = f"pending.setdefault({number}, []).append({{}})"
            # _has_bits_ words are little-endian: bit b lives in byte b // 8
            set_has = [f"mem[o + {HASBITS_OFFSET + f.has_bit // 8}] |= {1 << (f.has_bit % 8)}"]
            clear = []
            if f.oneof_group >= 0:
                for k, other in enumerate(entry.fields):
                    if other.oneof_group != f.oneof_group or other.number == number:
                        continue
                    size = deser._slot_size(other)
                    ns[f"_def{i}_{k}"] = entry.default_bytes[
                        other.offset : other.offset + size
                    ]
                    o_byte = HASBITS_OFFSET + other.has_bit // 8
                    clear += [
                        f"mem[o + {other.offset}:o + {other.offset + size}] = _def{i}_{k}",
                        f"mem[o + {o_byte}] &= {~(1 << (other.has_bit % 8)) & 0xFF}",
                    ]

            if kind is FieldType.MESSAGE:
                child = f"_decoder({f.child})(buf, pos, npos, arena, depth + 1, {{}})"
                body = [*read_length("submessage"), *DESCEND]
                if f.repeated:
                    body.append(keep.format(child.format(0)))
                else:  # proto3 merge: a second occurrence parses into the first
                    body += [
                        *clear,
                        f"existing = _ru64(mem, o + {offset})[0]",
                        "if existing == 0:",
                        f"    _wu64(mem, o + {offset}, {child.format(0)})",
                        "else:",
                        f"    {child.format('existing')}",
                        *set_has,
                    ]
                body.append("pos = npos")
            elif kind in (FieldType.STRING, FieldType.BYTES):
                body = read_length("string") + ["raw = bytes(buf[pos:npos])"]
                if kind is FieldType.STRING:
                    body += ["_vu8(raw)", "stats.utf8_bytes_validated += n"]
                body.append("stats.string_bytes_copied += n")
                if f.repeated:
                    body.append(keep.format("raw"))
                else:
                    body += [*clear, f"_ws(arena, obj + {offset}, raw)", *set_has]
                body.append("pos = npos")
            else:
                row = KINDS[kind]
                width = row.width
                if width:
                    # The in-object representation *is* the little-endian
                    # wire representation: wire bytes are stored verbatim.
                    body = read_fixed(width) + ["stats.fixed_fields += 1"]
                    if f.repeated:
                        body.append(keep.format("bytes(buf[pos:npos])"))
                    else:
                        # npos - pos == width: checked against end just above
                        body += [
                            *clear,
                            f"mem[o + {offset}:o + {offset + width}] = buf[pos:npos]",
                            *set_has,
                        ]
                    body.append("pos = npos")
                    run = [
                        f"if n % {width}:",
                        "    raise _DE('packed fixed run not a multiple of element width')",
                        f"stats.fixed_fields += n // {width}",
                        keep.format("bytes(buf[pos:npos])"),
                    ]
                else:
                    ns[f"_pk{i}"] = row.codec.pack if f.repeated else row.codec.pack_into
                    body = [
                        "start = pos",
                        *READ_VARINT,
                        "stats.varints_decoded += 1",
                        "stats.varint_bytes += pos - start",
                    ]
                    if f.repeated:
                        body.append(keep.format(f"_pk{i}({row.from_raw})"))
                    else:
                        body += [*clear, f"_pk{i}(mem, o + {offset}, {row.from_raw})", *set_has]
                    # A packed run stays one array from the wire to the
                    # arena: its ``tobytes()`` *is* the element storage.
                    run = [
                        "raw = _dpv(buf[pos:npos])",
                        "stats.varints_decoded += len(raw)",
                        "stats.varint_bytes += n",
                        keep.format(f"({row.from_raw_array}).tobytes()"),
                    ]
                if f.repeated:
                    branches.append((
                        make_tag(number, WireType.LENGTH_DELIMITED), f.name,
                        read_length("packed run") + run + ["pos = npos"],
                    ))
            branches.append((make_tag(number, wire_type_of(kind)), f.name, body))
        return branches

    def entry_source(self, index: int) -> tuple[str, dict]:
        """Build one entry's decode-function source and exec namespace:
        ``place_object``'s lines (``obj`` 0; any other ``obj`` is the one
        a first occurrence built, merged into), then the shared loop with
        the arena back end's branches; it returns the object's address.
        Unknown fields are dropped — a C++ object has no unknown set."""
        entry = self.deser.adt.entry(index)
        full_name, sizeof = entry.full_name, entry.sizeof
        # repeated fields collect in ``pending`` and materialize at the end
        repeated = any(f.repeated for f in entry.fields)
        ns = loop_namespace(full_name, DeserializeError, entry.fields)
        ns.update(
            _decoder=self.decoder,
            _mat=self.deser._materialize_repeated,
            _fbn=entry.field_by_number,
            _ws=self.deser._write_string,
            _vu8=validate_utf8,
            _serr=struct.error,
            _ru64=PRIMITIVES["pointer"].codec.unpack_from,
            _wu64=PRIMITIVES["pointer"].codec.pack_into,
            _default=entry.default_bytes,
            stats=self.stats,
        )
        source = tag_loop(
            [
                f"# generated arena decoder for {full_name} (ADT entry {index})",
                "def _decode(buf, pos, end, arena, depth, obj):",
            ],
            setup=[
                "placed = not obj",
                "if placed:",
                f"    obj = arena.allocate({sizeof}, {entry.alignof})",
                f"region = arena.space.region_of(obj, {sizeof})",
                "mem = region.buf",
                "o = obj - region.base",
                "if placed:",
                f"    mem[o:o + {sizeof}] = _default",
                f"    stats.bytes_memcpy += {sizeof}",
                "    stats.messages += 1",
                "    if depth > stats.max_depth:",
                "        stats.max_depth = depth",
                *(["pending = {}"] if repeated else []),
            ],
            each_tag=[],
            branches=self._field_branches(entry, ns),
            after_unknown=[],
            caught="(_Wfe, ValueError, _serr)",
            tail=[
                *([
                    "if pending:",
                    "    for number, values in pending.items():",
                    "        _mat(_fbn(number), obj, values, arena)",
                ] if repeated else []),
                "return obj",
            ],
        )
        return source, ns

    def compile(self, index: int):
        entry = self.deser.adt.entry(index)
        self.deser.check_entry_layout(entry)
        self._sources[index], ns = compile_codec(
            lambda: self.entry_source(index), f"<gen_arena {entry.full_name}>", PLAN_METRICS
        )
        fn = self.decoders[index] = ns["_decode"]
        return fn
