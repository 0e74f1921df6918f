"""The custom arena-based protobuf deserializer (paper §V-C).

This is the code that runs on the DPU: it parses proto3 wire bytes and
constructs, inside a bump-pointer arena, a byte-exact C++ object for the
host's ABI — default-instance memcpy (which seeds the vptr), scalar stores
at member offsets, presence-bit updates, hand-crafted ``std::string``
instances (honouring SSO), repeated-field element arrays, and recursively
allocated child messages.  Because the arena lives inside the outgoing
protocol block and the block is mirrored at the same virtual address on
the host, every internal pointer the deserializer writes is valid on the
host without adjustment (§III-B).

It is driven entirely by the :class:`~repro.offload.adt.Adt` — no message
descriptors, no protoc output — which is what lets one DPU binary serve
any protobuf schema (§V-B).  Two tiers decode the tag wire: ``generated``
(the default) compiles one straight-line decoder per ADT entry on first
use (:mod:`repro.offload.arena_gen`); ``interpretive`` is the
field-by-field loop in this module, the oracle the generated tier is
tested against.  The oracle reads a kind's facts (wire type, width,
member codec) from :mod:`repro.proto.kinds` and turns raw varints into
values with the hand-written
:func:`~repro.proto.deserializer.decode_varint_value` — never with the
table's expressions, which are what it checks.

The deserializer also keeps an operation census (:class:`DeserializeStats`)
— varints decoded, bytes copied, UTF-8 bytes validated, messages recursed —
which the calibrated cost model converts into CPU/DPU time for the paper's
figures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.abi import StringLayout, StdLib
from repro.abi.cpp_types import REPEATED_HEADER, LibcxxString, LibstdcxxString
from repro.memory import Arena
from repro.proto.descriptor import FieldType
from repro.proto.deserializer import DECODE_MODES, decode_varint_value, skip_field
from repro.proto.kinds import KINDS
from repro.proto.utf8 import validate_utf8
from repro.proto.wire_format import (
    MAX_NESTING_DEPTH,
    TruncatedMessageError,
    WireFormatError,
    WireType,
    decode_packed_varints,
    read_tag,
    read_varint,
)

from .adt import Adt, AdtEntry, AdtError, AdtField

__all__ = ["DeserializeError", "DeserializeStats", "ArenaDeserializer"]

HASBITS_OFFSET = 8  # immediately after the vptr, see MessageLayout


class DeserializeError(WireFormatError):
    """Offloaded deserialization failed (bad wire data)."""


@dataclass
class DeserializeStats:
    """Operation census for the cost model (reset per measurement)."""

    messages: int = 0
    varints_decoded: int = 0
    varint_bytes: int = 0
    fixed_fields: int = 0
    string_bytes_copied: int = 0
    utf8_bytes_validated: int = 0
    array_elements: int = 0
    bytes_memcpy: int = 0  # default-instance and array stores
    max_depth: int = 0

    def reset(self) -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, 0)


def _align8(n: int) -> int:
    return (n + 7) & ~7


#: every byte with the continuation bit set; deleting them from a packed
#: varint run leaves one byte per varint
_CONTINUATION_BYTES = bytes(range(0x80, 0x100))


class ArenaDeserializer:
    """Deserializes wire bytes into host-ABI objects inside an arena."""

    def __init__(
        self,
        adt: Adt,
        stats: DeserializeStats | None = None,
        mode: str = "generated",
    ) -> None:
        self.adt = adt
        self.stats = stats or DeserializeStats()
        self.string_layout: StringLayout = (
            LibstdcxxString() if adt.stdlib is StdLib.LIBSTDCXX else LibcxxString()
        )
        if mode not in DECODE_MODES:
            raise ValueError(f"unknown arena decode mode {mode!r}")
        #: "generated" or "interpretive"; may be reassigned on a live
        #: deserializer (the containment and differential tests switch
        #: tiers on a built deployment) — :meth:`deserialize` dispatches
        #: on it per call.
        self.mode = mode
        # The generated-decoder cache, built on first use (arena_gen
        # imports this module for the shared constants).
        self._gen_cache = None
        # index -> (FixedLayout, fields aligned with its slots); built on
        # first WIRE_FIXED request for that entry.
        self._fixed_layouts: dict[int, tuple] = {}
        # Arena bound of every entry nothing on the wire can grow (only
        # singular numeric scalars): a constant of the type, None otherwise.
        self._flat_bounds = [
            _align8(e.sizeof) + 8 + 64
            if all(not f.repeated and f.kind in KINDS for f in e.fields)
            else None
            for e in adt.entries
        ]

    # ------------------------------------------------------------------ API

    @property
    def gen_plans(self):
        """The deserializer's generated-decoder cache (built on first
        access) — the :class:`~repro.offload.arena_gen.ArenaGenCache`."""
        if self._gen_cache is None:
            from .arena_gen import ArenaGenCache

            self._gen_cache = ArenaGenCache(self)
        return self._gen_cache

    def deserialize(self, root_index: int, wire, arena: Arena) -> int:
        """Parse ``wire`` as the message class at ``root_index``; build the
        object in ``arena``; returns the object's virtual address.

        Dispatches on the deserializer's current ``mode``: the generated
        straight-line decoders (the default) or the interpretive oracle.
        """
        mode = self.mode
        if mode == "generated":
            buf = wire if isinstance(wire, (bytes, memoryview)) else bytes(wire)
            cache = self._gen_cache or self.gen_plans
            return cache.parse_message(root_index, buf, 0, len(buf), arena, 1)
        if mode != "interpretive":
            raise ValueError(f"unknown arena decode mode {mode!r}")
        buf = bytes(wire)
        return self._parse_message(root_index, buf, 0, len(buf), arena, depth=1)

    def deserialize_by_name(self, full_name: str, wire, arena: Arena) -> int:
        return self.deserialize(self.adt.index_of(full_name), wire, arena)

    # ------------------------------------------------- fixed-layout wire mode

    def fixed_layout_for(self, index: int):
        """The entry's :class:`~repro.proto.fixed_wire.FixedLayout` plus
        one ``(category, field, pack_into, has-bit byte, has-bit mask)``
        row per slot — what the decoder applies, resolved once; raises
        :class:`DeserializeError` when the type is ineligible.  The layout
        is derived from the ADT alone, but byte-identical to the one the
        client derived from its descriptors — that is what the
        negotiation hash proves."""
        cached = self._fixed_layouts.get(index)
        if cached is not None:
            return cached
        from repro.proto.fixed_wire import FieldSpec, FixedLayout, fixed_eligibility

        entry = self.adt.entry(index)
        specs = [
            FieldSpec(
                name=f.name,
                number=f.number,
                kind=f.kind,
                repeated=f.repeated,
                in_oneof=f.oneof_group >= 0,
            )
            for f in entry.fields
        ]
        ok, reasons = fixed_eligibility(specs)
        if not ok:
            raise DeserializeError(
                f"{entry.full_name} cannot ride fixed wire: {'; '.join(reasons)}"
            )
        self.check_entry_layout(entry)
        layout = FixedLayout(entry.full_name, specs)
        fields = sorted(entry.fields, key=lambda f: f.number)
        rows = []
        for slot, f in zip(layout.slots, fields):
            row = KINDS.get(f.kind)  # None for a string / bytes blob
            rows.append((slot.category, f, row and row.codec.pack_into,
                         HASBITS_OFFSET + f.has_bit // 8, 1 << (f.has_bit % 8)))
        self._fixed_layouts[index] = (layout, rows)
        return layout, rows

    def estimate_size_fixed(self, root_index: int, wire) -> int:
        """Fixed-wire analog of :meth:`estimate_size`: the arena bound
        comes from the count slots — no wire scan — once
        :meth:`FixedLayout.spans` has proven they lie inside ``wire``, so
        a payload whose counts lie is rejected here, before the caller
        reserves a block for it."""
        buf = wire if isinstance(wire, (bytes, memoryview)) else bytes(wire)
        layout, rows = self.fixed_layout_for(root_index)
        entry = self.adt.entry(root_index)
        total = _align8(entry.sizeof) + 8
        sso = self.string_layout.sso_capacity
        for (category, f, _, _, _), v in zip(rows, layout.spans(buf, DeserializeError)[0]):
            if category == "array":
                total += v * max(f.elem_size, 1) + 16
            elif category == "blob" and v > sso:
                total += _align8(v + 1) + 8
        return total + 64

    def deserialize_fixed(self, root_index: int, wire, arena: Arena) -> int:
        """Decode a WIRE_FIXED payload into an arena object: one struct
        unpack and bounds walk (:meth:`FixedLayout.spans`), then
        straight-line application of the proven spans — no tags, no
        varints, no per-byte branches."""
        buf = wire if isinstance(wire, (bytes, memoryview)) else bytes(wire)
        layout, rows = self.fixed_layout_for(root_index)
        values, cuts = layout.spans(buf, DeserializeError)
        k = 0  # tail slots seen
        entry = self.adt.entry(root_index)
        obj, mem, o = self.place_object(entry, arena, 1)
        stats = self.stats
        for (category, f, pack_into, has_at, has_mask), v in zip(rows, values):
            if category == "scalar":
                if v:
                    stats.fixed_fields += 1
                    pack_into(mem, o + f.offset, v)
                    mem[o + has_at] |= has_mask
                continue
            k += 1
            if not v:  # fixed wire has no presence bits: unset == default
                continue
            tail = bytes(buf[cuts[k - 1]:cuts[k]])
            if category == "blob":
                if f.kind is FieldType.STRING:
                    try:
                        validate_utf8(tail)
                    except ValueError as exc:
                        raise DeserializeError(
                            f"{entry.full_name}.{f.name}: {exc}"
                        ) from exc
                    stats.utf8_bytes_validated += v
                stats.string_bytes_copied += v
                self._write_string(arena, obj + f.offset, tail)
                mem[o + has_at] |= has_mask
            else:  # array
                stats.fixed_fields += v
                self._materialize_repeated(f, obj, [tail], arena)
        return obj

    # ------------------------------------------------------- size estimation

    def estimate_size(self, root_index: int, wire) -> int:
        """Cheap upper bound on the arena bytes :meth:`deserialize` will
        consume — used to reserve payload space in the outgoing block
        before constructing the object in place.  A type nothing on the
        wire can grow is sized without looking at the wire: the bound is
        what the scan returns for every well-formed payload, and a
        malformed one is rejected by :meth:`deserialize`."""
        flat = self._flat_bounds[root_index]
        if flat is not None:
            return flat
        buf = bytes(wire)
        return self._estimate(root_index, buf, 0, len(buf)) + 64

    def _estimate(self, index: int, buf: bytes, pos: int, end: int, depth: int = 1) -> int:
        entry = self.adt.entry(index)
        total = _align8(entry.sizeof) + 8
        sso = self.string_layout.sso_capacity
        str_size = self.string_layout.size
        while pos < end:
            number, wt, pos = read_tag(buf, pos)
            f = entry.field_by_number(number)
            if wt == WireType.VARINT:
                _, pos = read_varint(buf, pos)
                if f is not None and f.repeated:
                    total += f.elem_size + 8
            elif wt == WireType.FIXED64:
                pos += 8
                if f is not None and f.repeated:
                    total += f.elem_size + 8
            elif wt == WireType.FIXED32:
                pos += 4
                if f is not None and f.repeated:
                    total += f.elem_size + 8
            else:  # LENGTH_DELIMITED
                n, pos = read_varint(buf, pos)
                if pos + n > end:
                    raise TruncatedMessageError("length-delimited field overruns buffer")
                if f is None:
                    pass
                elif f.kind is FieldType.MESSAGE:
                    if depth >= MAX_NESTING_DEPTH:  # before a block is reserved for it
                        raise DeserializeError(f"messages nest deeper than {MAX_NESTING_DEPTH}")
                    total += self._estimate(f.child, buf, pos, pos + n, depth + 1) + 16
                elif f.kind in (FieldType.STRING, FieldType.BYTES):
                    if f.repeated:
                        total += _align8(str_size) + 8
                    if n > sso:
                        total += _align8(n + 1) + 8
                elif f.repeated:
                    # packed run
                    width = KINDS[f.kind].width
                    if width:
                        count = n // width
                    else:
                        count = len(buf[pos : pos + n].translate(None, _CONTINUATION_BYTES))
                    total += count * f.elem_size + 16
                pos += n
        return total

    # --------------------------------------------------------------- parsing

    def _parse_message(
        self, index: int, buf: bytes, pos: int, end: int, arena: Arena, depth: int
    ) -> int:
        entry = self.adt.entry(index)
        obj = self.place_object(entry, arena, depth)[0]
        self._parse_into(entry, obj, buf, pos, end, arena, depth)
        return obj

    def _parse_into(
        self,
        entry: AdtEntry,
        obj: int,
        buf: bytes,
        pos: int,
        end: int,
        arena: Arena,
        depth: int,
    ) -> None:
        space = arena.space
        # Repeated fields accumulate here and materialize at the end:
        # number -> list of python values / (addr for messages).
        pending_repeated: dict[int, list] = {}
        while pos < end:
            number, wt, pos = read_tag(buf, pos)
            f = entry.field_by_number(number)
            if f is None:
                pos = skip_field(buf, pos, wt, end)
                continue
            try:
                pos = self._parse_field(
                    entry, f, obj, wt, buf, pos, end, arena, depth, pending_repeated
                )
            except (WireFormatError, ValueError) as exc:
                raise DeserializeError(f"{entry.full_name}.{f.name}: {exc}") from exc
        if pos != end:
            raise DeserializeError(f"{entry.full_name}: overran submessage end")
        if pending_repeated:
            for number, values in pending_repeated.items():
                self._materialize_repeated(entry.field_by_number(number), obj, values, arena)

    def _set_has_bit(self, space, obj: int, has_bit: int) -> None:
        word_addr = obj + HASBITS_OFFSET + 4 * (has_bit // 32)
        space.write_u32(word_addr, space.read_u32(word_addr) | (1 << (has_bit % 32)))

    def _clear_has_bit(self, space, obj: int, has_bit: int) -> None:
        word_addr = obj + HASBITS_OFFSET + 4 * (has_bit // 32)
        space.write_u32(
            word_addr, space.read_u32(word_addr) & ~(1 << (has_bit % 32)) & 0xFFFFFFFF
        )

    def place_object(self, entry: AdtEntry, arena: Arena, depth: int) -> tuple:
        """Allocate ``entry``'s object in ``arena``, bounds-check it once
        and lay the default image (vptr, zeroed scalars, SSO-empty strings
        pointing at the host's global default instance, §V-B); returns
        ``(obj, mem, o)`` — address, the region's buffer and the object's
        offset in it.  The caller then stores at ``mem[o + offset]`` for
        the ADT offsets :meth:`check_entry_layout` proved inside the
        object.  Both tiers place every object here: one nesting check."""
        if depth > MAX_NESTING_DEPTH:
            raise DeserializeError(f"messages nest deeper than {MAX_NESTING_DEPTH}")
        sizeof = entry.sizeof
        obj = arena.allocate(sizeof, entry.alignof)
        region = arena.space.region_of(obj, sizeof)
        mem = region.buf
        o = obj - region.base
        mem[o : o + sizeof] = entry.default_bytes
        stats = self.stats
        stats.bytes_memcpy += sizeof
        stats.messages += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        return obj, mem, o

    def check_entry_layout(self, entry: AdtEntry) -> None:
        """The decoders that resolve an object's memory once store at ADT
        offsets without a further check; prove here, once per entry, that
        every such store lies inside ``[0, sizeof)``."""
        if len(entry.default_bytes) != entry.sizeof:
            raise AdtError(f"{entry.full_name}: default image is not sizeof bytes")
        for f in entry.fields:
            if (f.offset + self._slot_size(f) > entry.sizeof
                    or HASBITS_OFFSET + f.has_bit // 8 >= entry.sizeof):
                raise AdtError(f"{entry.full_name}.{f.name}: member outside the object")

    def _slot_size(self, f: AdtField) -> int:
        if f.repeated:
            return REPEATED_HEADER.size
        if f.kind in (FieldType.STRING, FieldType.BYTES):
            return self.string_layout.size
        if f.kind is FieldType.MESSAGE:
            return 8
        return KINDS[f.kind].codec.size

    def _clear_oneof_siblings(
        self, entry: AdtEntry, f: AdtField, obj: int, space
    ) -> None:
        """Setting a oneof member clears the others (the union semantics
        the dynamic API enforces; on the wire two members may appear in
        sequence and the last one must win alone)."""
        if f.oneof_group < 0:
            return
        for other in entry.fields:
            if other.oneof_group != f.oneof_group or other.number == f.number:
                continue
            # Restore the sibling's slot from the default instance bytes
            # (for strings that re-points the data pointer at the host
            # default instance's SSO buffer, the canonical 'unset' form).
            size = self._slot_size(other)
            space.write(
                obj + other.offset,
                entry.default_bytes[other.offset : other.offset + size],
            )
            self._clear_has_bit(space, obj, other.has_bit)

    def _parse_field(
        self,
        entry: AdtEntry,
        f: AdtField,
        obj: int,
        wt: int,
        buf: bytes,
        pos: int,
        end: int,
        arena: Arena,
        depth: int,
        pending_repeated: dict[int, list],
    ) -> int:
        space = arena.space
        kind = f.kind

        if kind is FieldType.MESSAGE:
            if wt != WireType.LENGTH_DELIMITED:
                raise DeserializeError(f"message field with wire type {wt}")
            n, pos = read_varint(buf, pos)
            if pos + n > end:
                raise TruncatedMessageError("submessage overruns parent")
            if f.repeated:
                child = self._parse_message(f.child, buf, pos, pos + n, arena, depth + 1)
                pending_repeated.setdefault(f.number, []).append(child)
            else:
                self._clear_oneof_siblings(entry, f, obj, space)
                existing = space.read_u64(obj + f.offset)
                if existing == 0:
                    child = self._parse_message(f.child, buf, pos, pos + n, arena, depth + 1)
                    space.write_u64(obj + f.offset, child)
                else:
                    # proto3 merge: re-parse into the existing child.
                    self._parse_into(
                        self.adt.entry(f.child), existing, buf, pos, pos + n, arena, depth + 1
                    )
                self._set_has_bit(space, obj, f.has_bit)
            return pos + n

        if kind in (FieldType.STRING, FieldType.BYTES):
            if wt != WireType.LENGTH_DELIMITED:
                raise DeserializeError(f"{kind.value} field with wire type {wt}")
            n, pos = read_varint(buf, pos)
            if pos + n > end:
                raise TruncatedMessageError("string overruns buffer")
            raw = buf[pos : pos + n]
            if kind is FieldType.STRING:
                validate_utf8(raw)
                self.stats.utf8_bytes_validated += n
            self.stats.string_bytes_copied += n
            if f.repeated:
                pending_repeated.setdefault(f.number, []).append(raw)
            else:
                self._clear_oneof_siblings(entry, f, obj, space)
                self._write_string(arena, obj + f.offset, raw)
                self._set_has_bit(space, obj, f.has_bit)
            return pos + n

        # Numeric scalar: every occurrence becomes a chunk of element bytes.
        if f.repeated and wt == WireType.LENGTH_DELIMITED:
            n, pos = read_varint(buf, pos)
            if pos + n > end:
                raise TruncatedMessageError("packed run overruns buffer")
            run = self._decode_packed(f, buf, pos, pos + n)
            pending_repeated.setdefault(f.number, []).append(run)
            return pos + n
        row = KINDS[kind]
        if wt != row.wire_type:
            raise DeserializeError(f"wire type {wt} for {kind.value} field")
        if row.width:
            # fixed-width: the in-object bytes are the wire bytes
            chunk = buf[pos : pos + row.width]
            if len(chunk) != row.width:
                raise TruncatedMessageError(f"{kind.value} extends past end of buffer")
            pos += row.width
            self.stats.fixed_fields += 1
        else:
            start = pos
            raw, pos = read_varint(buf, pos)
            self.stats.varints_decoded += 1
            self.stats.varint_bytes += pos - start
            chunk = row.codec.pack(decode_varint_value(kind, raw))
        if f.repeated:
            pending_repeated.setdefault(f.number, []).append(chunk)
        else:
            self._clear_oneof_siblings(entry, f, obj, space)
            space.write(obj + f.offset, chunk)
            self._set_has_bit(space, obj, f.has_bit)
        return pos

    # ------------------------------------------------------------ composites

    def _write_string(self, arena: Arena, addr: int, raw: bytes) -> None:
        layout = self.string_layout
        data_addr = None
        if len(raw) > layout.sso_capacity:
            data_addr = arena.allocate(len(raw) + 1, alignment=8)
        layout.write(arena.space, addr, raw, data_addr)

    def _decode_packed(self, f: AdtField, buf: bytes, pos: int, end: int) -> bytes:
        """Decode a packed run into its element storage bytes.  A
        fixed-width run's wire bytes *are* its element bytes; a varint run
        goes through the one packed-varint kernel and then, being the
        oracle, through the hand-written rule one element at a time."""
        kind = f.kind
        row = KINDS[kind]
        if row.width:
            if (end - pos) % row.width:
                raise DeserializeError("packed fixed run not a multiple of element width")
            self.stats.fixed_fields += (end - pos) // row.width
            return bytes(buf[pos:end])
        raw = decode_packed_varints(buf[pos:end])
        self.stats.varints_decoded += len(raw)
        self.stats.varint_bytes += end - pos
        values = [decode_varint_value(kind, r) for r in raw.tolist()]
        return struct.pack(f"<{len(values)}{row.fmt}", *values)

    def _materialize_repeated(self, f: AdtField, obj: int, values: list, arena: Arena) -> None:
        """Build the element storage of repeated field ``f`` from what the
        parse accumulated, in wire order: child addresses (messages), raw
        payloads (strings/bytes), or — for scalars — chunks of element
        bytes, one per packed run and one per unpacked occurrence."""
        space = arena.space
        # proto3 merge: if the object already carries elements (a singular
        # parent message field occurred twice and was merged), the new
        # occurrences append after them.
        old_elems, old_count, _ = REPEATED_HEADER.read(space, obj + f.offset)
        scalar = f.kind not in (FieldType.MESSAGE, FieldType.STRING, FieldType.BYTES)
        if scalar:
            data = b"".join(values)
            added = len(data) // f.elem_size
        else:
            added = len(values)
        count = old_count + added
        self.stats.array_elements += added
        if f.kind is FieldType.MESSAGE:
            # Array of pointers; children are already constructed.
            elems = arena.allocate(8 * count, alignment=8)
            old = space.read(old_elems, 8 * old_count) if old_count else b""
            space.write(elems, old + struct.pack(f"<{added}Q", *values))
            self.stats.bytes_memcpy += 8 * count
        elif not scalar:
            # Dense array of std::string objects; data follows in the
            # arena.  Existing SSO strings self-point, so moving them
            # requires re-crafting, not memcpy.
            str_size = self.string_layout.size
            elems = arena.allocate(str_size * count, alignment=8)
            old_values = [
                self.string_layout.read(space, old_elems + str_size * i)
                for i in range(old_count)
            ]
            for i, raw in enumerate(old_values + values):
                self._write_string(arena, elems + str_size * i, raw)
        else:
            # The chunks are already element bytes: one arena write for
            # the run(s), after any elements carried over.
            old_size = old_count * f.elem_size
            elems = arena.allocate(old_size + len(data), alignment=8)
            if old_size:
                space.write(elems, space.read(old_elems, old_size))
            if data:
                space.write(elems + old_size, data)
            self.stats.bytes_memcpy += len(data)
        REPEATED_HEADER.write(space, obj + f.offset, elems, count)
        self._set_has_bit(space, obj, f.has_bit)
