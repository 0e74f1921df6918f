"""Generated per-ADT-entry decoders for the offloaded arena deserializer.

The arena back end of the one tag-loop generator in
:mod:`repro.proto.gen_codec`: the frame, the wire reads, the cold path
and the compile step are that module's; the raw → value expressions are
the :mod:`repro.proto.kinds` table's.  What is written here is what an
arena object does with a value.  Everything the interpretive
:class:`ArenaDeserializer` resolves per field — the ``field_by_number``
probe, the kind ladder, the has-bit word arithmetic — is resolved once
per :class:`~repro.offload.adt.AdtEntry` and burned into the source as
literals: member offsets and ``struct`` packers (a fixed-width scalar's
wire bytes *are* its in-object bytes), has-bit bytes and masks, oneof
sibling restores, ``std::string`` forms, child entry indices.

An object's memory is checked once, then stored to: the arena's span
was resolved once into its region's buffer ``mem`` (with the send
buffer, on the DPU's datapath); the decoder bump-places its object there
(or takes the one a first occurrence built) and stores at
``mem[o + LITERAL ...]``, every literal proven inside the object
(``check_entry_layout``) and every slice store the exact width of its
slot — a wrong-length one raises only after nothing was stored.

The decoder charges the interpretive path's
:class:`~repro.offload.arena_deserializer.DeserializeStats` census
exactly (the cost model converts it into CPU/DPU time), counting in
locals that are stored once per object however the decode ends, as the
has-bit bytes are.  Strings and repeated scalars are stored in place;
repeated messages and strings, and a repeated scalar merging into
elements already there, go to the deserializer's composite writer.
Decoders are compiled lazily per entry and cached on the
:class:`ArenaGenCache`; cache traffic feeds
:data:`repro.proto.gen_codec.PLAN_METRICS`.
"""

from __future__ import annotations

import struct

from repro.abi import PRIMITIVES, REPEATED_HEADER
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

#: local -> the :class:`DeserializeStats` counter it is flushed into
_CENSUS = {"nv": "varints_decoded", "vb": "varint_bytes", "nf": "fixed_fields",
           "ns": "string_bytes_copied", "nu": "utf8_bytes_validated"}


def _bump(addr: str, size, align: int) -> list[str]:
    """Source placing ``size`` bytes at the arena's top, as ``Arena.allocate``
    does (which raises, naming the span, when they do not fit)."""
    return [f"{addr} = (arena.top + {align - 1}) & -{align}",
            f"if {addr} + {size} > arena.base + arena.size:",
            f"    arena.allocate({size}, {align})",
            f"arena.top = {addr} + {size}"]


class ArenaGenCache:
    """Per-deserializer store of generated decoders, keyed by ADT entry
    index: each one compiled straight-line function that places its
    object and decodes into it (the interpretive ``_parse_message`` /
    ``_parse_into`` in one); a message field calls its child's."""

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

    def _field_branches(self, entry: AdtEntry, ns: dict, census: set,
                        has_bytes: set) -> list[tuple[int, str, list[str]]]:
        """Per-field branches — a shared read, then what an arena object
        does with the value: a store at a literal offset (a ``std::string``
        in place) plus its has-bit in the local ``h<byte>``, after any
        oneof siblings are restored, or a chunk kept in ``pending``
        (repeated).  ``census`` and ``has_bytes`` collect the locals used."""
        layout = self.deser.string_layout
        ns.update(_sso=struct.Struct(layout.SSO_FORM[0]).pack_into,
                  _long=struct.Struct(layout.LONG_FORM[0]).pack_into)
        branches: list[tuple[int, str, list[str]]] = []
        for i, f in enumerate(entry.fields):
            kind = f.kind
            number = f.number
            offset = f.offset
            keep = f"pending.setdefault({number}, []).append({{}})"
            # _has_bits_ words are little-endian: bit b lives in byte b // 8
            set_has = [f"h{f.has_bit // 8} |= {1 << (f.has_bit % 8)}"]
            if not f.repeated:
                has_bytes.add(f.has_bit // 8)
            clear = []
            if f.oneof_group >= 0:
                for k, other in enumerate(entry.fields):
                    if other.oneof_group != f.oneof_group or other.number == number:
                        continue
                    size = self.deser._slot_size(other)
                    ns[f"_def{i}_{k}"] = entry.default_bytes[other.offset:other.offset + size]
                    has_bytes.add(other.has_bit // 8)
                    clear += [
                        f"mem[o + {other.offset}:o + {other.offset + size}] = _def{i}_{k}",
                        f"h{other.has_bit // 8} &= {~(1 << (other.has_bit % 8)) & 0xFF}",
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
                    body += ["if not raw.isascii():", "    _vu8(raw)", "nu += n"]
                    census.add("nu")
                census.add("ns")
                body.append("ns += n")
                if f.repeated:
                    body.append(keep.format("raw"))
                else:  # the std::string, short or with its data behind it in the arena
                    body += [
                        *clear,
                        f"if n <= {layout.sso_capacity}:",
                        f"    _sso(mem, o + {offset}, "
                        f"{layout.SSO_FORM[1].format(addr=f'obj + {offset}')})",
                        "else:",
                        *(f"    {line}" for line in _bump("d", "n + 1", 8)),
                        "    od = d - arena.origin",
                        "    mem[od:od + n] = raw",
                        "    mem[od + n] = 0",
                        f"    _long(mem, o + {offset}, {layout.LONG_FORM[1]})",
                        *set_has,
                    ]
                body.append("pos = npos")
            else:
                row = KINDS[kind]
                width = row.width
                if width:
                    # The in-object representation *is* the little-endian
                    # wire representation: wire bytes are stored verbatim.
                    census.add("nf")
                    body = read_fixed(width) + ["nf += 1"]
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
                        f"nf += n // {width}",
                        keep.format("bytes(buf[pos:npos])"),
                    ]
                else:
                    census.update(("nv", "vb"))
                    ns[f"_pk{i}"] = row.codec.pack if f.repeated else row.codec.pack_into
                    body = ["start = pos", *READ_VARINT, "nv += 1", "vb += pos - start"]
                    if f.repeated:
                        body.append(keep.format(f"_pk{i}({row.from_raw})"))
                    else:
                        body += [*clear, f"_pk{i}(mem, o + {offset}, {row.from_raw})", *set_has]
                    # A packed run stays one array from the wire to the
                    # arena: its ``tobytes()`` *is* the element storage.
                    run = [
                        "raw = _dpv(buf[pos:npos])",
                        "nv += len(raw)",
                        "vb += n",
                        keep.format(f"({row.from_raw_array}).tobytes()"),
                    ]
                if f.repeated:
                    branches.append((
                        make_tag(number, WireType.LENGTH_DELIMITED), f.name,
                        read_length("packed run") + run + ["pos = npos"],
                    ))
            branches.append((make_tag(number, wire_type_of(kind)), f.name, body))
        return branches

    @staticmethod
    def _element_store(f) -> list[str]:
        """A repeated scalar's chunks ``values`` stored as its element
        array, in one arena span (a merge goes to the composite writer)."""
        at, size = f.offset, f.elem_size
        return [
            f"if _rh(mem, o + {at})[1]:",
            "    _mat(_fbn(number), obj, values, arena)",
            "    continue",
            "data = b''.join(values)",
            f"count = len(data) // {size}",
            "stats.array_elements += count",
            *_bump("e", "len(data)", 8),
            "oe = e - arena.origin",
            "mem[oe:oe + len(data)] = data",
            "stats.bytes_memcpy += len(data)",
            f"_wh(mem, o + {at}, e, count, count)",
            f"mem[o + {HASBITS_OFFSET + f.has_bit // 8}] |= {1 << (f.has_bit % 8)}",
        ]

    def entry_source(self, index: int) -> tuple[str, dict]:
        """Build one entry's decode-function source and exec namespace:
        the object placed (``obj`` 0; any other ``obj`` is the one a first
        occurrence built, merged into), the shared loop with this back
        end's branches, the flush, the repeated fields stored; it returns
        the object's address.  Unknown fields are dropped — a C++ object
        has no unknown set."""
        entry = self.deser.adt.entry(index)
        full_name, sizeof, align = entry.full_name, entry.sizeof, entry.alignof
        # repeated fields collect in ``pending`` and are stored at the end
        repeated = [f for f in entry.fields if f.repeated]
        ns = loop_namespace(full_name, DeserializeError, entry.fields)
        ns.update(
            _decoder=self.decoder,
            _mat=self.deser._materialize_repeated,
            _fbn=entry.field_by_number,
            _vu8=validate_utf8,
            _serr=struct.error,
            _ru64=PRIMITIVES["pointer"].codec.unpack_from,
            _wu64=PRIMITIVES["pointer"].codec.pack_into,
            _rh=REPEATED_HEADER.codec.unpack_from,
            _wh=REPEATED_HEADER.codec.pack_into,
            _default=entry.default_bytes,
            stats=self.stats,
        )
        census: set = set()
        has_bytes: set = set()
        branches = self._field_branches(entry, ns, census, has_bytes)
        stores, composites = [], False
        for f in repeated:
            if f.kind in (FieldType.MESSAGE, FieldType.STRING, FieldType.BYTES):
                composites = True
            else:
                stores += [f"if number == {f.number}:  # {f.name}",
                           *(f"    {line}" for line in self._element_store(f)), "    continue"]
        source = tag_loop(
            [
                f"# generated arena decoder for {full_name} (ADT entry {index})",
                "def _decode(buf, pos, end, arena, depth, obj):",
            ],
            setup=[
                "mem = arena.mem",
                "if obj:",
                "    o = obj - arena.origin",
                "else:",
                *(f"    {line}" for line in _bump("obj", sizeof, align)),
                "    o = obj - arena.origin",
                f"    mem[o:o + {sizeof}] = _default",
                f"    stats.bytes_memcpy += {sizeof}",
                "    stats.messages += 1",
                "    if depth > stats.max_depth:",
                "        stats.max_depth = depth",
                *(f"h{k} = mem[o + {HASBITS_OFFSET + k}]" for k in sorted(has_bytes)),
                *(f"{name} = 0" for name in sorted(census)),
                *(["pending = {}"] if repeated else []),
            ],
            each_tag=[],
            branches=branches,
            after_unknown=[],
            caught="(_Wfe, ValueError, _serr)",
            flush=[
                *(f"mem[o + {HASBITS_OFFSET + k}] = h{k}" for k in sorted(has_bytes)),
                *(f"stats.{_CENSUS[name]} += {name}" for name in sorted(census)),
            ],
            tail=[
                *([
                    "for number, values in pending.items():",
                    *(f"    {line}" for line in stores),
                    *(["    _mat(_fbn(number), obj, values, arena)"] if composites else []),
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
