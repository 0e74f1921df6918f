"""Protocol debugging: block dissection, flag names, hexdumps.

Operational tooling for the wire protocol (docs/PROTOCOL.md): given a
buffer address, render the block structure — preamble, per-message
headers, payload previews — the way a packet dissector renders a
capture.  Used interactively when a BlockFormatError fires, and by the
``repro dissect`` style debugging flows in tests.  (Timed spans are
``repro.obs``'s job — docs/OBSERVABILITY.md.)
"""

from __future__ import annotations

from .wire import BlockFormatError, BlockReader, Flags, Preamble

__all__ = ["hexdump", "describe_flags", "dissect_block"]


def hexdump(data: bytes, base_addr: int = 0, width: int = 16) -> str:
    """Classic offset/hex/ASCII dump."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexes = " ".join(f"{b:02x}" for b in chunk)
        text = "".join(chr(b) if 0x20 <= b < 0x7F else "." for b in chunk)
        lines.append(f"{base_addr + off:#012x}  {hexes:<{width * 3}} |{text}|")
    return "\n".join(lines)


_FLAG_NAMES = [
    (Flags.ERROR, "ERROR"),
    (Flags.BACKGROUND, "BACKGROUND"),
    (Flags.OBJECT_PAYLOAD, "OBJECT"),
    (Flags.LARGE, "LARGE"),
    (Flags.ABORTED, "ABORTED"),
    (Flags.WIRE_PAYLOAD, "WIRE"),
    (Flags.TRACE_CTX, "TRACE_CTX"),
    (Flags.FIXED_PAYLOAD, "FIXED"),
    (Flags.DEADLINE, "DEADLINE"),
    (Flags.EXPIRED, "EXPIRED"),
    (Flags.MALFORMED, "MALFORMED"),
]


def describe_flags(flags: int) -> str:
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    unknown = flags & ~sum(bit for bit, _ in _FLAG_NAMES)
    if unknown:
        names.append(f"unknown({unknown:#x})")
    return "|".join(names) if names else "-"


def dissect_block(space, base_addr: int, max_length: int, preview: int = 16) -> str:
    """Render one block's structure; falls back to a preamble-only view
    (plus a hexdump of the head) when the block is malformed."""
    lines = [f"block @ {base_addr:#x}"]
    try:
        preamble = Preamble.read(space, base_addr)
    except Exception as exc:  # noqa: BLE001 — dissectors must not throw
        return f"block @ {base_addr:#x}: unreadable preamble ({exc})"
    lines.append(
        f"  preamble: messages={preamble.message_count} "
        f"acks={preamble.ack_blocks} length={preamble.block_length}"
    )
    try:
        reader = BlockReader(space, base_addr, max_length)
        messages = reader.messages()
    except BlockFormatError as exc:
        lines.append(f"  MALFORMED: {exc}")
        head = bytes(space.read(base_addr, min(max_length, 64)))
        lines.append(hexdump(head, base_addr))
        return "\n".join(lines)
    for i, msg in enumerate(messages):
        head = bytes(
            space.read(msg.payload_addr, min(preview, msg.payload_size))
        )
        ellipsis = "…" if msg.payload_size > preview else ""
        lines.append(
            f"  [{i}] id/method={msg.header.method_or_id} "
            f"size={msg.payload_size} flags={describe_flags(msg.header.flags)} "
            f"payload@{msg.payload_addr:#x}: {head.hex()}{ellipsis}"
        )
    return "\n".join(lines)
