"""Negotiated branchless fixed-layout wire mode (WIRE_FIXED).

Protobuf's wire format spends its flexibility budget on every message:
each field carries a tag, every integer is a varint, and the decoder is
one branch per byte.  For the RPC workloads the paper measures, the
schema on both ends is *identical and static* — so a connection that has
proven that (by exchanging a layout hash at setup) can drop the tags and
varints entirely and ship **offset-addressed fields**: a single
``struct``-packed fixed section, followed by a tail of raw fixed-width
array elements and string bytes.  Decoding is one ``struct.unpack`` plus
straight-line slot assignment — no per-byte branches.

Eligibility is per message type, decided from the schema alone:

* singular numeric scalars, bools and enums (one fixed-width slot each,
  in the format :mod:`repro.proto.kinds` gives the kind in memory);
* repeated packable numerics (a u32 count slot + fixed-width elements in
  the tail);
* singular strings / bytes (a u32 byte-length slot + raw bytes in the
  tail).

Message-typed fields, repeated strings/bytes/messages and oneof members
make a type ineligible (:func:`fixed_eligibility` reports the reasons —
surfaced by ``repro codegen``).  A message instance carrying unknown
fields cannot be represented either; :meth:`FixedLayout.measure` returns
``None`` and the sender falls back to standard wire for that message.

The layout hash (:meth:`FixedLayout.layout_hash`,
:func:`negotiation_hash`) is a SHA-256 over the canonical slot
description, so any schema drift — field added, type changed, width
changed — flips the hash and the xRPC setup handshake falls back to
standard wire instead of misparsing (docs/PROTOCOL.md).

Fixed wire deliberately has no presence bits: like proto3 scalar
semantics, a decoded field is "set" iff its value is non-default.  That
makes ``decode(encode(m))`` equal to ``parse(serialize(m))`` for every
eligible message — the property the differential fuzz suite checks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .descriptor import FieldType, MessageDescriptor
from .kinds import KINDS
from .message import Message, MessageFactory, _RepeatedField
from .serializer import check_room
from .wire_format import WireFormatError

__all__ = [
    "WIRE_FIXED",
    "WIRE_STANDARD",
    "FixedWireError",
    "FieldSpec",
    "FixedLayout",
    "SizedFixed",
    "fixed_eligibility",
    "get_fixed_layout",
    "measure_fixed",
    "parse_fixed",
    "specs_of_descriptor",
    "negotiation_hash",
    "service_types",
]

#: Wire-mode values carried in the frame prefix byte (the gRPC
#: "compressed" flag position): 0 = standard protobuf wire, 2 = fixed
#: layout.  1 remains "compressed", which the stack rejects.
WIRE_STANDARD = 0
WIRE_FIXED = 2


class FixedWireError(WireFormatError):
    """Malformed fixed-layout payload (truncated, trailing bytes, or a
    length slot pointing past the end)."""


#: struct format character per fixed-section slot / tail element: the
#: kind table's, except that a bool travels as one unsigned byte.
_SCALAR_FMT = {t: "B" if k.fmt == "?" else k.fmt for t, k in KINDS.items()}
_FMT_WIDTH = {fmt: struct.calcsize("<" + fmt) for fmt in set(_SCALAR_FMT.values())}

# Slot categories.
_SCALAR = "scalar"
_ARRAY = "array"  # u32 count slot + count * width tail bytes
_BLOB = "blob"  # u32 byte-length slot + raw tail bytes


@dataclass(frozen=True)
class FieldSpec:
    """The schema facts fixed-layout eligibility depends on — producible
    from a :class:`FieldDescriptor` *or* an offload-side ``AdtField``, so
    both ends derive byte-identical layouts."""

    name: str
    number: int
    kind: FieldType
    repeated: bool
    in_oneof: bool


def specs_of_descriptor(descriptor: MessageDescriptor) -> list[FieldSpec]:
    return [
        FieldSpec(
            name=fd.name,
            number=fd.number,
            kind=fd.type,
            repeated=fd.is_repeated,
            in_oneof=fd.containing_oneof is not None,
        )
        for fd in descriptor.fields
    ]


def _classify(spec: FieldSpec) -> tuple[str, str] | str:
    """Slot ``(category, fmt)`` for an eligible field, or the reason
    string making the containing type ineligible."""
    if spec.kind is FieldType.MESSAGE:
        return f"field {spec.name}: message-typed fields need pointers"
    if spec.in_oneof:
        return f"field {spec.name}: oneof members have no fixed slot"
    if spec.kind in (FieldType.STRING, FieldType.BYTES):
        if spec.repeated:
            return (
                f"field {spec.name}: repeated {spec.kind.value} has no "
                "bounded layout"
            )
        return (_BLOB, "I")
    fmt = _SCALAR_FMT.get(spec.kind)
    if fmt is None:
        return f"field {spec.name}: {spec.kind.value} is not fixable"
    if spec.repeated:
        return (_ARRAY, fmt)
    return (_SCALAR, fmt)


def fixed_eligibility(specs: list[FieldSpec]) -> tuple[bool, list[str]]:
    """Whether a type with these fields can ride fixed wire; when not,
    the per-field reasons."""
    reasons = [c for c in map(_classify, specs) if isinstance(c, str)]
    return (not reasons, reasons)


@dataclass(frozen=True)
class _Slot:
    spec: FieldSpec
    category: str
    fmt: str  # scalar slot format; element format for arrays


class SizedFixed:
    """A measured fixed-wire message: knows its size, emits in place.

    The fixed-wire analog of
    :class:`~repro.proto.gen_codec.SizedMessage` — same
    ``size``/``emit_into`` surface, so the zero-copy framed send path
    (reserve, write header, emit payload in place) works unchanged.
    """

    __slots__ = ("layout", "size", "_fixed_values", "_tails")

    def __init__(self, layout: "FixedLayout", fixed_values, tails, size: int) -> None:
        self.layout = layout
        self.size = size
        self._fixed_values = fixed_values
        self._tails = tails

    def emit_into(self, buf, pos: int) -> int:
        check_room(buf, pos, self.size)
        layout = self.layout
        layout._struct.pack_into(buf, pos, *self._fixed_values)
        pos += layout.fixed_size
        for tail in self._tails:
            end = pos + len(tail)
            buf[pos:end] = tail
            pos = end
        return pos

    def to_bytes(self) -> bytes:
        out = bytearray(self.size)
        self.emit_into(out, 0)
        return bytes(out)


class FixedLayout:
    """The fixed-layout codec for one eligible message type."""

    __slots__ = (
        "full_name", "slots", "fixed_size", "_struct", "_hash_base",
        "_tail_slots", "_msg_rows", "_factory",
    )

    def __init__(self, full_name: str, specs: list[FieldSpec]) -> None:
        ok, reasons = fixed_eligibility(specs)
        if not ok:
            raise ValueError(
                f"{full_name} is not fixed-layout eligible: {'; '.join(reasons)}"
            )
        slots = []
        for spec in sorted(specs, key=lambda s: s.number):
            category, fmt = _classify(spec)
            slots.append(_Slot(spec, category, fmt))
        self.full_name = full_name
        self.slots = slots
        # Little-endian struct formats have no implicit padding, so the
        # fixed section is exactly the sum of the slot widths.
        self._struct = struct.Struct(
            "<" + "".join(s.fmt if s.category == _SCALAR else "I" for s in slots)
        )
        self.fixed_size = self._struct.size
        self._hash_base = "\n".join(self.layout_lines())
        # (slot index, bytes per counted unit) of every slot with a tail span.
        self._tail_slots = [
            (i, 1 if s.category == _BLOB else _FMT_WIDTH[s.fmt])
            for i, s in enumerate(slots) if s.category != _SCALAR
        ]
        # Message-side binding (descriptor + factory), set by
        # get_fixed_layout: what decode_into needs to fill ``msg._values``.
        # ADT-side layouts leave it unset — the arena decoder applies the
        # proven spans itself.
        self._msg_rows = None
        self._factory = None

    def bind_message_side(
        self, descriptor: MessageDescriptor, factory: MessageFactory | None
    ) -> "FixedLayout":
        by_name = {fd.name: fd for fd in descriptor.fields}
        # One (category, name, kind, element format, descriptor) row per
        # slot — what decode_into applies, resolved once.
        self._msg_rows = [
            (s.category, s.spec.name, s.spec.kind, s.fmt, by_name[s.spec.name])
            for s in self.slots
        ]
        self._factory = factory
        return self

    # -- identity -----------------------------------------------------------

    def layout_lines(self) -> list[str]:
        """Canonical per-field description the layout hash covers."""
        return [f"message {self.full_name}"] + [
            f"  {s.spec.number} {s.spec.name} {s.category} {s.fmt}"
            for s in self.slots
        ]

    def layout_hash(self, salt: str = "") -> str:
        return hashlib.sha256((self._hash_base + salt).encode()).hexdigest()

    # -- encode -------------------------------------------------------------

    def measure(self, msg: Message) -> SizedFixed | None:
        """Measure ``msg`` for fixed emission; ``None`` when this
        particular instance cannot ride fixed wire (it carries unknown
        fields, whose bytes fixed wire has no slot for)."""
        if msg._unknown:
            return None
        fixed_values = []
        tails = []
        size = self.fixed_size
        for slot in self.slots:
            v = getattr(msg, slot.spec.name)
            if slot.category == _SCALAR:
                fixed_values.append(v)
            elif slot.category == _BLOB:
                raw = v.encode("utf-8") if slot.spec.kind is FieldType.STRING else bytes(v)
                fixed_values.append(len(raw))
                tails.append(raw)
                size += len(raw)
            else:  # _ARRAY
                n = len(v)
                fixed_values.append(n)
                tail = struct.pack(f"<{n}{slot.fmt}", *v)
                tails.append(tail)
                size += len(tail)
        return SizedFixed(self, fixed_values, tails, size)

    def encode(self, msg: Message) -> bytes | None:
        sized = self.measure(msg)
        return None if sized is None else sized.to_bytes()

    # -- decode -------------------------------------------------------------

    def spans(self, buf, error=FixedWireError) -> tuple[tuple, list[int]]:
        """The one walk over a fixed payload, run before anything is built
        or reserved from it: the fixed section is all there, every blob /
        array span its count slot announces lies inside the payload, and
        the spans end exactly where the payload does — or ``error``.
        Returns the slot values (field-number order) and the tail's cut
        points: the k-th blob / array slot's bytes are ``buf[cuts[k]:
        cuts[k + 1]]``.  Both decoders (``decode_into`` here, the arena
        one in :mod:`repro.offload.arena_deserializer`) only *apply* them."""
        end = len(buf)
        pos = self.fixed_size
        if end < pos:
            raise error(f"{self.full_name}: fixed section truncated ({end} < {pos} bytes)")
        values = self._struct.unpack_from(buf, 0)
        cuts = [pos]
        for i, width in self._tail_slots:
            pos += values[i] * width  # a count is unsigned: the cuts only grow
            cuts.append(pos)
        if pos != end:  # so one comparison proves them all; which one lied is the cold path
            for (i, _), cut in zip(self._tail_slots, cuts[1:]):
                if cut > end:
                    spec, what = self.slots[i].spec, self.slots[i].category
                    raise error(f"{self.full_name}.{spec.name}: {what} overruns fixed payload")
            raise error(f"{self.full_name}: {end - pos} trailing bytes after fixed payload")
        return values, cuts

    def decode_into(self, msg: Message, data) -> Message:
        """Apply a fixed payload to ``msg``: one struct unpack, then the
        slots go straight into ``msg._values`` (the types are already
        exact — they came out of the layout's own struct formats),
        mirroring how the generated tag-wire decoder stores fields.
        Needs the message side bound (:func:`get_fixed_layout` does)."""
        buf = data if isinstance(data, (bytes, bytearray, memoryview)) else bytes(data)
        slot_values, cuts = self.spans(buf)
        k = 0  # tail slots seen
        values = msg._values
        factory = self._factory
        for (category, name, kind, fmt, fd), v in zip(self._msg_rows, slot_values):
            if category == _SCALAR:
                if v:
                    values[name] = bool(v) if kind is FieldType.BOOL else v
                continue
            k += 1
            if not v:  # fixed wire has no presence bits: unset == default
                continue
            start, end = cuts[k - 1], cuts[k]
            if kind is FieldType.STRING:  # validated by the strict decode, as on tag wire
                try:
                    values[name] = str(buf[start:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise FixedWireError(f"{self.full_name}.{name}: {exc}") from exc
            elif category == _BLOB:
                values[name] = bytes(buf[start:end])
            else:  # _ARRAY
                decoded = struct.unpack_from(f"<{v}{fmt}", buf, start)
                if kind is FieldType.BOOL:
                    decoded = [b != 0 for b in decoded]
                lst = _RepeatedField(fd, factory)
                list.extend(lst, decoded)
                values[name] = lst
        return msg

    def parse(self, cls: type[Message], data) -> Message:
        return self.decode_into(cls(), data)


# ---------------------------------------------------------------------------
# Cache + negotiation
# ---------------------------------------------------------------------------


def get_fixed_layout(
    descriptor: MessageDescriptor, factory: MessageFactory | None = None
) -> FixedLayout | None:
    """The type's :class:`FixedLayout`, or ``None`` if ineligible.
    Cached on ``factory`` beside the generated codecs."""
    cache = None
    if factory is not None:
        cache = getattr(factory, "_fixed_layouts", None)
        if cache is None:
            cache = factory._fixed_layouts = {}
        if descriptor.full_name in cache:
            return cache[descriptor.full_name]
    specs = specs_of_descriptor(descriptor)
    ok, _ = fixed_eligibility(specs)
    layout = None
    if ok:
        layout = FixedLayout(descriptor.full_name, specs).bind_message_side(descriptor, factory)
    if cache is not None:
        cache[descriptor.full_name] = layout
    return layout


def measure_fixed(msg: Message) -> SizedFixed | None:
    """``msg`` measured for fixed wire, or ``None`` when its type or this
    instance cannot ride it — the caller then measures it for standard
    wire itself (``prepare_emit``)."""
    layout = get_fixed_layout(type(msg).DESCRIPTOR, msg._FACTORY)
    return None if layout is None else layout.measure(msg)


def parse_fixed(cls: type[Message], payload) -> Message:
    """A WIRE_FIXED payload parsed into a fresh ``cls``.  A frame for a
    type that cannot ride fixed wire is malformed, like lying count slots."""
    layout = get_fixed_layout(cls.DESCRIPTOR, cls._FACTORY)
    if layout is None:
        raise FixedWireError(f"{cls.DESCRIPTOR.full_name} cannot ride fixed wire")
    return layout.parse(cls, payload)


def service_types(service) -> list[MessageDescriptor]:
    """The unique request/response types of a service, by full name."""
    seen: dict[str, MessageDescriptor] = {}
    for m in service.methods:
        for desc in (m.input_type, m.output_type):
            seen.setdefault(desc.full_name, desc)
    return [seen[k] for k in sorted(seen)]


def negotiation_hash(types, salt: str = "") -> str:
    """Connection-setup hash over every type the connection may carry:
    eligible types contribute their full slot layout, ineligible ones
    just their name (they stay on standard wire either way, but a type
    flipping eligibility across versions must still flip the hash)."""
    lines = []
    for desc in sorted(types, key=lambda d: d.full_name):
        specs = specs_of_descriptor(desc)
        ok, _ = fixed_eligibility(specs)
        if ok:
            lines += FixedLayout(desc.full_name, specs).layout_lines()
        else:
            lines.append(f"message {desc.full_name} ineligible")
    return hashlib.sha256(("\n".join(lines) + salt).encode()).hexdigest()
