"""Pluggable flush policies for partially filled blocks.

A block seals and ships the moment it reaches ``block_size`` (Nagle
batching, §IV) — that decision is structural and stays in the endpoint.
What *is* policy is when to give up on filling a **partial** block: the
paper's event loop flushes partials every pass to bound latency under
low load, but a latency/throughput trade lives here and the engine makes
it pluggable:

* ``eager``  — flush any partial block every progress pass (the paper's
  behavior, and the default);
* ``nagle``  — hold a partial block for up to ``deadline_ticks`` passes
  hoping more messages batch in, then flush ("Nagle with a deadline");
* ``bytes``  — hold until the partial block accumulates
  ``byte_threshold`` payload bytes, with the deadline as the low-load
  escape hatch (without it a lone request would hang forever).

Policies only ever *answer* — the endpoint asks once per progress pass
and records the returned reason string in its ``flush_reasons`` counter
map, which the engine exports as metrics.  Reason vocabulary:

========== =====================================================
reason      meaning
========== =====================================================
eager       partial flushed because the policy is eager
deadline    partial older than the deadline (nagle/bytes escape)
bytes       partial crossed the byte threshold
block_full  block reached ``block_size`` (not a policy decision)
explicit    application called ``flush()`` directly
backlog     window-admission flush (client backlog drain)
========== =====================================================
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "FlushState",
    "FlushPolicy",
    "EagerFlush",
    "NagleFlush",
    "ByteThresholdFlush",
    "make_flush_policy",
    "FLUSH_POLICIES",
]


class FlushState(NamedTuple):
    """What the endpoint knows about its open partial block (built once
    per pass while a block is open: a tuple is the cheapest record)."""

    pending_bytes: int  # bytes written into the open block so far
    pending_messages: int  # messages committed into the open block
    ticks_waiting: int  # progress passes since the first pending message


class FlushPolicy:
    """Decides whether a partial block should seal now.

    Returns the flush *reason* (a short string for the metrics counter)
    or ``None`` to keep batching.
    """

    name = "base"

    def should_flush(self, state: FlushState) -> str | None:
        raise NotImplementedError


class EagerFlush(FlushPolicy):
    """Flush every pass — the paper's low-latency default."""

    name = "eager"

    def should_flush(self, state: FlushState) -> str | None:
        return "eager" if state.pending_messages else None


class NagleFlush(FlushPolicy):
    """Hold partials up to a deadline measured in progress passes."""

    name = "nagle"

    def __init__(self, deadline_ticks: int = 4) -> None:
        if deadline_ticks < 1:
            raise ValueError("deadline_ticks must be >= 1")
        self.deadline_ticks = deadline_ticks

    def should_flush(self, state: FlushState) -> str | None:
        if state.pending_messages and state.ticks_waiting >= self.deadline_ticks:
            return "deadline"
        return None


class ByteThresholdFlush(FlushPolicy):
    """Hold partials until enough bytes batched; deadline as backstop."""

    name = "bytes"

    def __init__(self, byte_threshold: int, deadline_ticks: int = 16) -> None:
        if byte_threshold < 1:
            raise ValueError("byte_threshold must be >= 1")
        if deadline_ticks < 1:
            raise ValueError("deadline_ticks must be >= 1")
        self.byte_threshold = byte_threshold
        self.deadline_ticks = deadline_ticks

    def should_flush(self, state: FlushState) -> str | None:
        if not state.pending_messages:
            return None
        if state.pending_bytes >= self.byte_threshold:
            return "bytes"
        if state.ticks_waiting >= self.deadline_ticks:
            return "deadline"
        return None


FLUSH_POLICIES = ("eager", "nagle", "bytes")


def make_flush_policy(config) -> FlushPolicy:
    """Build the policy a :class:`~repro.core.config.ProtocolConfig`
    selects (``flush_policy`` / ``flush_deadline_ticks`` /
    ``flush_byte_threshold`` fields)."""
    name = getattr(config, "flush_policy", "eager")
    deadline = getattr(config, "flush_deadline_ticks", 4)
    if name == "eager":
        return EagerFlush()
    if name == "nagle":
        return NagleFlush(deadline)
    if name == "bytes":
        threshold = getattr(config, "flush_byte_threshold", 0) or config.block_size // 2
        return ByteThresholdFlush(threshold, deadline)
    raise ValueError(f"unknown flush policy {name!r} (choices: {FLUSH_POLICIES})")
