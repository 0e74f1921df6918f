"""Compiled decode plans for the offloaded arena deserializer.

The offload twin of :mod:`repro.proto.decode_plan`: where the reference
plan compiler specializes a ``MessageDescriptor`` into a tag→handler
table, this module specializes an :class:`~repro.offload.adt.AdtEntry`.
Everything the interpretive :class:`ArenaDeserializer` resolves per field
— the ``field_by_number`` probe, the ``FieldType`` comparison ladder, the
has-bit word arithmetic, the NumPy dtype lookup — is resolved once per
ADT entry at plan-compile time:

* member offsets and precompiled ``struct.Struct`` packers for varint
  scalars (fixed-width scalars memcpy their wire bytes verbatim — the
  in-object representation *is* the little-endian wire representation);
* the has-bit word offset and mask as plain ints;
* oneof sibling restore recipes (default-instance slot slices + has-bit
  clear masks) as a flat list;
* the child plan index for message fields.

Plans are compiled lazily per entry and cached on the
:class:`ArenaPlanCache` owned by the deserializer, keyed by ADT index;
cache traffic feeds the shared
:data:`repro.proto.decode_plan.PLAN_METRICS`.

The plan path preserves the interpretive path's
:class:`~repro.offload.arena_deserializer.DeserializeStats` census
exactly — the calibrated cost model converts that census into CPU/DPU
time, so both paths must charge identical operation counts for the same
wire bytes.  Repeated-field materialization and string crafting delegate
to the deserializer's existing composite writers for the same reason.
"""

from __future__ import annotations

import struct

from repro.abi import MEMBER_PRIMITIVE
from repro.proto.decode_plan import PLAN_METRICS
from repro.proto.descriptor import FieldType
from repro.proto.utf8 import validate_utf8
from repro.proto.wire_format import (
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_packed_varints,
    make_tag,
    read_varint,
)

from .adt import AdtEntry, AdtField
from .arena_deserializer import (
    _FIXED_WIDTH,
    _VARINT_ELEMS,
    HASBITS_OFFSET,
    DeserializeError,
)

__all__ = ["ArenaPlanCache", "ArenaEntryPlan", "ArenaGenCache"]

_U32 = 0xFFFFFFFF
_U64 = (1 << 64) - 1


def _u32_to_i32(v: int) -> int:
    v &= _U32
    return v - (1 << 32) if v >= (1 << 31) else v


def _u64_to_i64(v: int) -> int:
    v &= _U64
    return v - (1 << 64) if v >= (1 << 63) else v


def _zigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


_VARINT_CONVERT = {
    FieldType.BOOL: lambda raw: 1 if raw else 0,
    FieldType.SINT32: lambda raw: _zigzag(raw & _U32),
    FieldType.SINT64: _zigzag,
    FieldType.INT32: _u32_to_i32,
    FieldType.ENUM: _u32_to_i32,
    FieldType.INT64: _u64_to_i64,
    FieldType.UINT32: lambda raw: raw & _U32,
    FieldType.UINT64: lambda raw: raw,
}


class ArenaEntryPlan:
    """One ADT entry's compiled tag→handler table.

    Handlers have the signature
    ``handler(obj, buf, pos, end, arena, depth, pending) -> new_pos``
    where ``pending`` accumulates repeated-field values for end-of-message
    materialization, exactly like the interpretive ``_parse_into``.
    """

    __slots__ = ("entry", "index", "handlers", "tag_names")

    def __init__(self, entry: AdtEntry, index: int) -> None:
        self.entry = entry
        self.index = index
        self.handlers: dict[int, object] = {}
        self.tag_names: dict[int, str] = {}


class ArenaPlanCache:
    """Per-deserializer plan store, keyed by ADT entry index."""

    def __init__(self, deser) -> None:
        self.deser = deser
        self.stats = deser.stats
        self._plans: list[ArenaEntryPlan | None] = [None] * len(deser.adt.entries)

    # -- cache ---------------------------------------------------------------

    def plan(self, index: int) -> ArenaEntryPlan:
        plan = self._plans[index]
        if plan is None:
            PLAN_METRICS.cache_misses += 1
            plan = self._compile(index)
        else:
            PLAN_METRICS.cache_hits += 1
        return plan

    # -- driving loop --------------------------------------------------------

    def parse_message(self, index: int, buf, pos: int, end: int, arena, depth: int) -> int:
        """Plan twin of ``ArenaDeserializer._parse_message``."""
        deser = self.deser
        entry = deser.adt.entry(index)
        obj = arena.allocate(entry.sizeof, entry.alignof)
        arena.space.write(obj, entry.default_bytes)
        stats = self.stats
        stats.bytes_memcpy += entry.sizeof
        stats.messages += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        self.parse_into(index, obj, buf, pos, end, arena, depth)
        return obj

    def parse_into(self, index: int, obj: int, buf, pos: int, end: int, arena, depth: int) -> None:
        plan = self.plan(index)
        handlers = plan.handlers
        entry = plan.entry
        pending: dict[int, list] = {}
        while pos < end:
            b = buf[pos]
            if b < 0x80:
                tag = b
                pos += 1
            else:
                tag, pos = read_varint(buf, pos)
            handler = handlers.get(tag)
            if handler is None:
                pos = self._parse_unknown(plan, buf, tag, pos, end)
            else:
                try:
                    pos = handler(obj, buf, pos, end, arena, depth, pending)
                except (WireFormatError, ValueError, struct.error) as exc:
                    raise DeserializeError(
                        f"{entry.full_name}.{plan.tag_names[tag]}: {exc}"
                    ) from exc
        if pos != end:
            raise DeserializeError(f"{entry.full_name}: overran submessage end")
        if pending:
            deser = self.deser
            for number, values in pending.items():
                deser._materialize_repeated(
                    entry.field_by_number(number), obj, values, arena
                )

    def _parse_unknown(self, plan: ArenaEntryPlan, buf, tag: int, pos: int, end: int) -> int:
        number = tag >> 3
        wire_type = tag & 0x7
        if number == 0:
            raise WireFormatError("field number 0 is invalid")
        if not WireType.is_valid(wire_type):
            raise WireFormatError(f"unsupported wire type {wire_type}")
        f = plan.entry.field_by_number(number)
        if f is not None:
            raise DeserializeError(
                f"{plan.entry.full_name}.{f.name}: wire type {wire_type} "
                f"for {f.kind.value} field"
            )
        return self.deser._skip(buf, pos, wire_type, end)

    # -- compilation ---------------------------------------------------------

    def _compile(self, index: int) -> ArenaEntryPlan:
        entry = self.deser.adt.entry(index)
        plan = ArenaEntryPlan(entry, index)
        self._plans[index] = plan
        PLAN_METRICS.plans_compiled += 1
        for f in entry.fields:
            self._compile_field(plan, entry, f)
        return plan

    def _compile_field(self, plan: ArenaEntryPlan, entry: AdtEntry, f: AdtField) -> None:
        deser = self.deser
        stats = self.stats
        kind = f.kind
        offset = f.offset
        number = f.number
        set_has = _make_set_has(f.has_bit)
        clear_siblings = _make_clear_siblings(entry, f, deser)

        def register(wire_type: int, handler) -> None:
            tag = make_tag(number, wire_type)
            plan.handlers[tag] = handler
            plan.tag_names[tag] = f.name

        if kind is FieldType.MESSAGE:
            child = f.child
            cache = self

            if f.repeated:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    n, pos = read_varint(buf, pos)
                    npos = pos + n
                    if npos > end:
                        raise TruncatedMessageError("submessage overruns parent")
                    addr = cache.parse_message(child, buf, pos, npos, arena, depth + 1)
                    pending.setdefault(number, []).append(addr)
                    return npos

            else:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    n, pos = read_varint(buf, pos)
                    npos = pos + n
                    if npos > end:
                        raise TruncatedMessageError("submessage overruns parent")
                    space = arena.space
                    if clear_siblings is not None:
                        clear_siblings(space, obj)
                    existing = space.read_u64(obj + offset)
                    if existing == 0:
                        addr = cache.parse_message(child, buf, pos, npos, arena, depth + 1)
                        space.write_u64(obj + offset, addr)
                    else:
                        # proto3 merge: re-parse into the existing child.
                        cache.parse_into(child, existing, buf, pos, npos, arena, depth + 1)
                    set_has(space, obj)
                    return npos

            register(WireType.LENGTH_DELIMITED, handler)
            return

        if kind in (FieldType.STRING, FieldType.BYTES):
            is_string = kind is FieldType.STRING

            if f.repeated:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    n, pos = read_varint(buf, pos)
                    npos = pos + n
                    if npos > end:
                        raise TruncatedMessageError("string overruns buffer")
                    raw = bytes(buf[pos:npos])
                    if is_string:
                        validate_utf8(raw)
                        stats.utf8_bytes_validated += n
                    stats.string_bytes_copied += n
                    pending.setdefault(number, []).append(raw)
                    return npos

            else:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    n, pos = read_varint(buf, pos)
                    npos = pos + n
                    if npos > end:
                        raise TruncatedMessageError("string overruns buffer")
                    raw = bytes(buf[pos:npos])
                    if is_string:
                        validate_utf8(raw)
                        stats.utf8_bytes_validated += n
                    stats.string_bytes_copied += n
                    space = arena.space
                    if clear_siblings is not None:
                        clear_siblings(space, obj)
                    deser._write_string(arena, obj + offset, raw)
                    set_has(space, obj)
                    return npos

            register(WireType.LENGTH_DELIMITED, handler)
            return

        # Numeric scalar: natural-wire-type handler plus (when repeated)
        # a packed LENGTH_DELIMITED handler with bulk decoding.
        width = _FIXED_WIDTH.get(kind)
        if width is not None:
            natural_wt = WireType.FIXED32 if width == 4 else WireType.FIXED64

            def read_one(buf, pos, end):
                npos = pos + width
                if npos > end:
                    raise TruncatedMessageError(
                        f"fixed{width * 8} extends past end of buffer"
                    )
                stats.fixed_fields += 1
                return bytes(buf[pos:npos]), npos

            if f.repeated:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    raw, pos = read_one(buf, pos, end)
                    pending.setdefault(number, []).append(raw)
                    return pos

            else:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    raw, pos = read_one(buf, pos, end)
                    space = arena.space
                    if clear_siblings is not None:
                        clear_siblings(space, obj)
                    # The wire encoding is the in-object encoding: memcpy.
                    space.write(obj + offset, raw)
                    set_has(space, obj)
                    return pos

            register(natural_wt, handler)
        else:
            convert = _VARINT_CONVERT[kind]
            pack = MEMBER_PRIMITIVE[kind].codec.pack

            if f.repeated:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    if pos >= end:
                        raise TruncatedMessageError(
                            "varint extends past end of buffer"
                        )
                    start = pos
                    b = buf[pos]
                    if b < 0x80:
                        raw = b
                        pos += 1
                    else:
                        raw, pos = read_varint(buf, pos)
                    stats.varints_decoded += 1
                    stats.varint_bytes += pos - start
                    pending.setdefault(number, []).append(pack(convert(raw)))
                    return pos

            else:

                def handler(obj, buf, pos, end, arena, depth, pending):
                    if pos >= end:
                        raise TruncatedMessageError(
                            "varint extends past end of buffer"
                        )
                    start = pos
                    b = buf[pos]
                    if b < 0x80:
                        raw = b
                        pos += 1
                    else:
                        raw, pos = read_varint(buf, pos)
                    stats.varints_decoded += 1
                    stats.varint_bytes += pos - start
                    space = arena.space
                    if clear_siblings is not None:
                        clear_siblings(space, obj)
                    space.write(obj + offset, pack(convert(raw)))
                    set_has(space, obj)
                    return pos

            register(WireType.VARINT, handler)

        if f.repeated:
            packed = _make_packed_handler(f, number, stats)
            register(WireType.LENGTH_DELIMITED, packed)


def _make_set_has(has_bit: int):
    word_off = HASBITS_OFFSET + 4 * (has_bit // 32)
    mask = 1 << (has_bit % 32)

    def set_has(space, obj: int) -> None:
        addr = obj + word_off
        space.write_u32(addr, space.read_u32(addr) | mask)

    return set_has


def _make_clear_siblings(entry: AdtEntry, f: AdtField, deser):
    """Precompute the oneof sibling restore recipe (default-slot bytes +
    has-bit clear) — ``None`` when the field is not in a oneof."""
    if f.oneof_group < 0:
        return None
    recipes = []
    for other in entry.fields:
        if other.oneof_group != f.oneof_group or other.number == f.number:
            continue
        size = deser._slot_size(other)
        default = entry.default_bytes[other.offset : other.offset + size]
        word_off = HASBITS_OFFSET + 4 * (other.has_bit // 32)
        inv_mask = ~(1 << (other.has_bit % 32)) & _U32
        recipes.append((other.offset, default, word_off, inv_mask))
    if not recipes:
        return None

    def clear(space, obj: int) -> None:
        for off, default, word_off, inv_mask in recipes:
            space.write(obj + off, default)
            addr = obj + word_off
            space.write_u32(addr, space.read_u32(addr) & inv_mask)

    return clear


# ---------------------------------------------------------------------------
# Generated per-entry deserializers (the gen_codec twin for ADT entries)
# ---------------------------------------------------------------------------

_ARENA_CONVERT_EXPR = {
    FieldType.BOOL: "(1 if raw else 0)",
    FieldType.UINT32: "raw & 0xFFFFFFFF",
    FieldType.UINT64: "raw",
    FieldType.INT32: "((raw & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000",
    FieldType.ENUM: "((raw & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000",
    FieldType.INT64: "((raw & 0x%X) ^ 0x8000000000000000) - 0x8000000000000000" % _U64,
    FieldType.SINT32: "((raw & 0xFFFFFFFF) >> 1) ^ -(raw & 1)",
    FieldType.SINT64: "(raw >> 1) ^ -(raw & 1)",
}


class ArenaGenCache:
    """Generated per-ADT-entry deserializers — the
    :mod:`repro.proto.gen_codec` idiom applied to arena decoding.

    Same driving contract as :class:`ArenaPlanCache` (``parse_message`` /
    ``parse_into``), but each entry's tag dispatch is one compiled
    straight-line function with member offsets, has-bit masks and oneof
    restore recipes burned in as source literals.  Charges the exact
    :class:`~repro.offload.arena_deserializer.DeserializeStats` census the
    plan and interpretive paths charge, and stores packed runs through the
    same array-to-element-bytes converters.
    """

    def __init__(self, deser) -> None:
        self.deser = deser
        self.stats = deser.stats
        self._decoders: list = [None] * len(deser.adt.entries)
        self._sources: list[str | None] = [None] * len(deser.adt.entries)

    # -- cache ---------------------------------------------------------------

    def decoder(self, index: int):
        fn = self._decoders[index]
        if fn is None:
            fn = self._compile(index)
        else:
            PLAN_METRICS.gen_cache_hits += 1
        return fn

    def source(self, index: int) -> str:
        self.decoder(index)
        return self._sources[index]

    # -- driving loop --------------------------------------------------------

    def parse_message(self, index: int, buf, pos: int, end: int, arena, depth: int) -> int:
        deser = self.deser
        entry = deser.adt.entry(index)
        obj = arena.allocate(entry.sizeof, entry.alignof)
        arena.space.write(obj, entry.default_bytes)
        stats = self.stats
        stats.bytes_memcpy += entry.sizeof
        stats.messages += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        self.decoder(index)(obj, buf, pos, end, arena, depth)
        return obj

    def parse_into(self, index: int, obj: int, buf, pos: int, end: int, arena, depth: int) -> None:
        self.decoder(index)(obj, buf, pos, end, arena, depth)

    def _parse_unknown(self, entry: AdtEntry, buf, tag: int, pos: int, end: int) -> int:
        number = tag >> 3
        wire_type = tag & 0x7
        if number == 0:
            raise WireFormatError("field number 0 is invalid")
        if not WireType.is_valid(wire_type):
            raise WireFormatError(f"unsupported wire type {wire_type}")
        f = entry.field_by_number(number)
        if f is not None:
            raise DeserializeError(
                f"{entry.full_name}.{f.name}: wire type {wire_type} "
                f"for {f.kind.value} field"
            )
        return self.deser._skip(buf, pos, wire_type, end)

    # -- source generation ---------------------------------------------------

    def _field_branches(self, entry: AdtEntry, ns: dict) -> list[tuple[int, str, list[str]]]:
        deser = self.deser
        branches: list[tuple[int, str, list[str]]] = []
        for i, f in enumerate(entry.fields):
            kind = f.kind
            number = f.number
            offset = f.offset
            word_off = HASBITS_OFFSET + 4 * (f.has_bit // 32)
            mask = 1 << (f.has_bit % 32)
            set_has = [
                f"addr = obj + {word_off}",
                f"space.write_u32(addr, space.read_u32(addr) | {mask})",
            ]
            clear = []
            if f.oneof_group >= 0:
                for k, other in enumerate(entry.fields):
                    if other.oneof_group != f.oneof_group or other.number == number:
                        continue
                    size = deser._slot_size(other)
                    ns[f"_def{i}_{k}"] = entry.default_bytes[
                        other.offset : other.offset + size
                    ]
                    o_word = HASBITS_OFFSET + 4 * (other.has_bit // 32)
                    o_inv = ~(1 << (other.has_bit % 32)) & _U32
                    clear += [
                        f"space.write(obj + {other.offset}, _def{i}_{k})",
                        f"addr = obj + {o_word}",
                        f"space.write_u32(addr, space.read_u32(addr) & {o_inv})",
                    ]

            if kind is FieldType.MESSAGE:
                child = f.child
                tag = make_tag(number, WireType.LENGTH_DELIMITED)
                if f.repeated:
                    body = [
                        "n, pos = _rv(buf, pos)",
                        "npos = pos + n",
                        "if npos > end:",
                        "    raise _Trunc('submessage overruns parent')",
                        f"addr = _cache.parse_message({child}, buf, pos, npos, arena, depth + 1)",
                        f"pending.setdefault({number}, []).append(addr)",
                        "pos = npos",
                    ]
                else:
                    body = [
                        "n, pos = _rv(buf, pos)",
                        "npos = pos + n",
                        "if npos > end:",
                        "    raise _Trunc('submessage overruns parent')",
                        *clear,
                        f"existing = space.read_u64(obj + {offset})",
                        "if existing == 0:",
                        f"    addr = _cache.parse_message({child}, buf, pos, npos, arena, depth + 1)",
                        f"    space.write_u64(obj + {offset}, addr)",
                        "else:",
                        f"    _cache.parse_into({child}, existing, buf, pos, npos, arena, depth + 1)",
                        *set_has,
                        "pos = npos",
                    ]
                branches.append((tag, f.name, body))
                continue

            if kind in (FieldType.STRING, FieldType.BYTES):
                tag = make_tag(number, WireType.LENGTH_DELIMITED)
                check = (
                    ["_vu8(raw)", "stats.utf8_bytes_validated += n"]
                    if kind is FieldType.STRING
                    else []
                )
                if f.repeated:
                    body = [
                        "n, pos = _rv(buf, pos)",
                        "npos = pos + n",
                        "if npos > end:",
                        "    raise _Trunc('string overruns buffer')",
                        "raw = bytes(buf[pos:npos])",
                        *check,
                        "stats.string_bytes_copied += n",
                        f"pending.setdefault({number}, []).append(raw)",
                        "pos = npos",
                    ]
                else:
                    body = [
                        "n, pos = _rv(buf, pos)",
                        "npos = pos + n",
                        "if npos > end:",
                        "    raise _Trunc('string overruns buffer')",
                        "raw = bytes(buf[pos:npos])",
                        *check,
                        "stats.string_bytes_copied += n",
                        *clear,
                        f"_ws(arena, obj + {offset}, raw)",
                        *set_has,
                        "pos = npos",
                    ]
                branches.append((tag, f.name, body))
                continue

            width = _FIXED_WIDTH.get(kind)
            if width is not None:
                natural_tag = make_tag(
                    number, WireType.FIXED32 if width == 4 else WireType.FIXED64
                )
                read = [
                    f"npos = pos + {width}",
                    "if npos > end:",
                    f"    raise _Trunc('fixed{width * 8} extends past end of buffer')",
                    "stats.fixed_fields += 1",
                ]
                if f.repeated:
                    body = read + [
                        f"pending.setdefault({number}, []).append(bytes(buf[pos:npos]))",
                        "pos = npos",
                    ]
                else:
                    body = read + [
                        *clear,
                        f"space.write(obj + {offset}, bytes(buf[pos:npos]))",
                        *set_has,
                        "pos = npos",
                    ]
                branches.append((natural_tag, f.name, body))
                if f.repeated:
                    branches.append((make_tag(number, WireType.LENGTH_DELIMITED), f.name, [
                        "n, pos = _rv(buf, pos)",
                        "run_end = pos + n",
                        "if run_end > end:",
                        "    raise _Trunc('packed run overruns buffer')",
                        f"if n % {width}:",
                        "    raise _DE('packed fixed run not a multiple of element width')",
                        f"stats.fixed_fields += n // {width}",
                        f"pending.setdefault({number}, []).append(bytes(buf[pos:run_end]))",
                        "pos = run_end",
                    ]))
                continue

            # varint-carried kind
            natural_tag = make_tag(number, WireType.VARINT)
            ns[f"_pk{i}"] = MEMBER_PRIMITIVE[kind].codec.pack
            ns[f"_el{i}"] = _VARINT_ELEMS[kind]
            read = [
                "if pos >= end:",
                "    raise _Trunc('varint extends past end of buffer')",
                "start = pos",
                "b = buf[pos]",
                "if b < 0x80:",
                "    raw = b",
                "    pos += 1",
                "else:",
                "    raw, pos = _rv(buf, pos)",
                "stats.varints_decoded += 1",
                "stats.varint_bytes += pos - start",
            ]
            if f.repeated:
                body = read + [
                    f"pending.setdefault({number}, []).append("
                    f"_pk{i}({_ARENA_CONVERT_EXPR[kind]}))",
                ]
            else:
                body = read + [
                    *clear,
                    f"space.write(obj + {offset}, _pk{i}({_ARENA_CONVERT_EXPR[kind]}))",
                    *set_has,
                ]
            branches.append((natural_tag, f.name, body))
            if f.repeated:
                branches.append((make_tag(number, WireType.LENGTH_DELIMITED), f.name, [
                    "n, pos = _rv(buf, pos)",
                    "run_end = pos + n",
                    "if run_end > end:",
                    "    raise _Trunc('packed run overruns buffer')",
                    "raw = _dpv(buf[pos:run_end])",
                    "stats.varints_decoded += len(raw)",
                    "stats.varint_bytes += n",
                    f"pending.setdefault({number}, []).append(_el{i}(raw).tobytes())",
                    "pos = run_end",
                ]))
        return branches

    def entry_source(self, index: int) -> tuple[str, dict]:
        """Build one entry's decode-function source and exec namespace."""
        entry = self.deser.adt.entry(index)
        ns: dict = {
            "_rv": read_varint,
            "_dpv": decode_packed_varints,
            "_cache": self,
            "_entry": entry,
            "_FULL": entry.full_name,
            "_unk": self._parse_unknown,
            "_mat": self.deser._materialize_repeated,
            "_fbn": entry.field_by_number,
            "_ws": self.deser._write_string,
            "_vu8": validate_utf8,
            "_Trunc": TruncatedMessageError,
            "_Wfe": WireFormatError,
            "_DE": DeserializeError,
            "_serr": struct.error,
            "stats": self.stats,
        }
        branches = self._field_branches(entry, ns)
        lines = [
            f"# generated arena decoder for {entry.full_name} (ADT entry {index})",
            "def _decode(obj, buf, pos, end, arena, depth):",
            "    space = arena.space",
            "    pending = {}",
            "    fname = None",
            "    try:",
            "        while pos < end:",
            "            fname = None",
            "            b = buf[pos]",
            "            if b < 0x80:",
            "                tag = b",
            "                pos += 1",
            "            else:",
            "                tag, pos = _rv(buf, pos)",
        ]
        kw = "if"
        for tag, fname, body in branches:
            lines.append(f"            {kw} tag == {tag}:  # {fname}")
            lines.append(f"                fname = {fname!r}")
            lines += ["                " + ln for ln in body]
            kw = "elif"
        if branches:
            lines.append("            else:")
            lines.append("                pos = _unk(_entry, buf, tag, pos, end)")
        else:
            lines.append("            pos = _unk(_entry, buf, tag, pos, end)")
        lines += [
            "    except (_Wfe, ValueError, _serr) as exc:",
            "        if fname is None:",
            "            raise",
            "        raise _DE(f'{_FULL}.{fname}: {exc}') from exc",
            "    if pos != end:",
            "        raise _DE(_FULL + ': overran submessage end')",
            "    if pending:",
            "        for number, values in pending.items():",
            "            _mat(_fbn(number), obj, values, arena)",
        ]
        return "\n".join(lines) + "\n", ns

    def _compile(self, index: int):
        import time as _time

        t0 = _time.perf_counter_ns()
        entry = self.deser.adt.entry(index)
        source, ns = self.entry_source(index)
        exec(compile(source, f"<gen_arena {entry.full_name}>", "exec"), ns)
        fn = ns["_decode"]
        self._decoders[index] = fn
        self._sources[index] = source
        PLAN_METRICS.gen_compiles += 1
        PLAN_METRICS.gen_source_bytes += len(source)
        PLAN_METRICS.gen_compile_ns += _time.perf_counter_ns() - t0
        return fn


def _make_packed_handler(f: AdtField, number: int, stats):
    """Bulk decode of a packed run into one chunk of element bytes,
    charging the same census as the interpretive ``_decode_packed``."""
    width = _FIXED_WIDTH.get(f.kind)
    if width is not None:

        def handler(obj, buf, pos, end, arena, depth, pending):
            n, pos = read_varint(buf, pos)
            run_end = pos + n
            if run_end > end:
                raise TruncatedMessageError("packed run overruns buffer")
            if n % width:
                raise DeserializeError("packed fixed run not a multiple of element width")
            stats.fixed_fields += n // width
            # The wire encoding is the in-object encoding: memcpy.
            pending.setdefault(number, []).append(bytes(buf[pos:run_end]))
            return run_end

        return handler

    to_elems = _VARINT_ELEMS[f.kind]

    def handler(obj, buf, pos, end, arena, depth, pending):
        n, pos = read_varint(buf, pos)
        run_end = pos + n
        if run_end > end:
            raise TruncatedMessageError("packed run overruns buffer")
        raw = decode_packed_varints(buf[pos:run_end])
        stats.varints_decoded += len(raw)
        stats.varint_bytes += n
        pending.setdefault(number, []).append(to_elems(raw).tobytes())
        return run_end

    return handler
