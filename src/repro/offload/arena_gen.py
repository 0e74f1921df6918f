"""Generated per-ADT-entry decoders for the offloaded arena deserializer.

The offload twin of :mod:`repro.proto.gen_codec`: where the reference
generator specializes a ``MessageDescriptor`` into straight-line source,
this module specializes an :class:`~repro.offload.adt.AdtEntry`.
Everything the interpretive :class:`ArenaDeserializer` resolves per field
— the ``field_by_number`` probe, the ``FieldType`` comparison ladder, the
has-bit word arithmetic, the NumPy dtype lookup — is resolved once per
ADT entry at compile time and burned into the source as literals:

* member offsets and precompiled ``struct.Struct`` packers for varint
  scalars (fixed-width scalars memcpy their wire bytes verbatim — the
  in-object representation *is* the little-endian wire representation);
* the has-bit byte offset and mask as plain ints;
* oneof sibling restore recipes (default-instance slot slices + has-bit
  clear masks) as straight-line stores;
* the child entry index for message fields.

An object's memory is checked once, then stored to: ``parse_message`` /
``parse_into`` bounds-check ``[obj, obj + sizeof)`` and hand the decoder
the region's buffer ``mem`` and the object's offset ``o`` in it; every
in-object store is ``mem[o + LITERAL ...]`` with the literal proven
``< sizeof`` at compile time (``check_entry_layout``) and every slice
store the exact width of its slot — a wrong-length slice store would
resize a ``bytearray`` or fail on a shared-memory view, so it must be
impossible by construction.

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
import time

from repro.abi import MEMBER_PRIMITIVE, PRIMITIVES
from repro.proto.descriptor import FieldType
from repro.proto.gen_codec import PLAN_METRICS
from repro.proto.utf8 import validate_utf8
from repro.proto.wire_format import (
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_packed_varints,
    make_tag,
    read_varint,
)

from .adt import AdtEntry
from .arena_deserializer import (
    _FIXED_WIDTH,
    _VARINT_ELEMS,
    HASBITS_OFFSET,
    DeserializeError,
)

__all__ = ["ArenaGenCache"]

_U64 = (1 << 64) - 1

# raw varint -> member value, as a source expression over ``raw``
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
    """Per-deserializer store of generated decoders, keyed by ADT entry
    index.

    ``parse_message`` / ``parse_into`` mirror the interpretive
    ``_parse_message`` / ``_parse_into``; each entry's tag dispatch is one
    compiled straight-line function.  Charges the exact
    :class:`~repro.offload.arena_deserializer.DeserializeStats` census the
    interpretive path charges, and stores packed runs through the same
    array-to-element-bytes converters.
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
        decode = self.decoder(index)  # compiled (and its layout proven) first
        obj, mem, o = deser.place_object(deser.adt.entry(index), arena, depth)
        decode(mem, o, obj, buf, pos, end, arena, depth)
        return obj

    def parse_into(self, index: int, obj: int, buf, pos: int, end: int, arena, depth: int) -> None:
        region = arena.space.region_of(obj, self.deser.adt.entry(index).sizeof)
        self.decoder(index)(region.buf, obj - region.base, obj, buf, pos, end, arena, depth)

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
                        f"existing = _ru64(mem, o + {offset})[0]",
                        "if existing == 0:",
                        f"    addr = _cache.parse_message({child}, buf, pos, npos, arena, depth + 1)",
                        f"    _wu64(mem, o + {offset}, addr)",
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
                        # npos - pos == width: checked against end just above
                        f"mem[o + {offset}:o + {offset + width}] = buf[pos:npos]",
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
            codec = MEMBER_PRIMITIVE[kind].codec
            ns[f"_pk{i}"] = codec.pack if f.repeated else codec.pack_into
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
                    f"_pk{i}(mem, o + {offset}, {_ARENA_CONVERT_EXPR[kind]})",
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
            "_ru64": PRIMITIVES["pointer"].codec.unpack_from,
            "_wu64": PRIMITIVES["pointer"].codec.pack_into,
            "stats": self.stats,
        }
        branches = self._field_branches(entry, ns)
        lines = [
            f"# generated arena decoder for {entry.full_name} (ADT entry {index})",
            "def _decode(mem, o, obj, buf, pos, end, arena, depth):",
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
        t0 = time.perf_counter_ns()
        entry = self.deser.adt.entry(index)
        self.deser.check_entry_layout(entry)
        source, ns = self.entry_source(index)
        exec(compile(source, f"<gen_arena {entry.full_name}>", "exec"), ns)
        fn = ns["_decode"]
        self._decoders[index] = fn
        self._sources[index] = source
        PLAN_METRICS.gen_compiles += 1
        PLAN_METRICS.gen_source_bytes += len(source)
        PLAN_METRICS.gen_compile_ns += time.perf_counter_ns() - t0
        return fn
