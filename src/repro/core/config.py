"""Protocol configuration (the tunables of Table I).

Defaults reproduce the paper's benchmark configuration: 8 KiB blocks
aligned to 1024 bytes, 256 credits per connection, 3 MiB client buffers
and 16 MiB server buffers, concurrency 1024 per connection, 16 DPU / 8
host threads.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProtocolConfig", "CLIENT_DEFAULTS", "SERVER_DEFAULTS"]

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-endpoint protocol parameters.

    Attributes
    ----------
    block_size:
        Minimum block size; a block is sealed and sent once its content
        reaches this size (Nagle-style batching, §IV).  Messages larger
        than this get a block of their own.
    block_alignment:
        Blocks are aligned so the bucket index fits the 4-byte immediate
        while keeping a large addressable buffer (§IV-E).
    credits:
        Initial credit count; one credit per block in flight (§IV-C).
    send_buffer_size / recv_buffer_size:
        Sizes of each connection's SBuf / RBuf.  The receive buffer must
        be at least the *remote* side's send buffer size because it
        mirrors it.
    concurrency:
        Max outstanding requests per connection (client side); bounded by
        the 2^16 request-ID space (§IV-D).
    threads:
        Poller thread count (used by the datapath simulator; the
        functional stack is event-loop driven).

    A partially filled block seals on the next progress pass (the
    paper's event loop); an endpoint's ``flush_hold`` lets it wait more
    passes (an attribute of the built endpoint, settable live).
    """

    block_size: int = 8 * KIB
    block_alignment: int = 1 * KIB
    credits: int = 256
    send_buffer_size: int = 3 * MIB
    recv_buffer_size: int = 3 * MIB
    concurrency: int = 1024
    threads: int = 16
    #: the largest payload the endpoint accepts at all (a limit, not the
    #: wire format: payloads from 2^16 bytes on take the LARGE form with
    #: a 64-bit size extension, §IV-E, whatever this says)
    max_message_size: int = 1 << 20
    #: progress passes a transmitted request may stay unanswered before
    #: the client fails it locally with Flags.ERROR | Flags.ABORTED
    #: (docs/FAULTS.md).  0 (the default) disables deadlines — correct
    #: for the benchmark paths, where a stall means a bug, not a fault.
    request_deadline_ticks: int = 0
    #: per-block body CRC-32 verification on receive (docs/FAULTS.md);
    #: off by default — the checksum is always *written*, verification
    #: is opt-in for fault-injection runs.
    verify_checksums: bool = False
    #: fabric backend carrying this side's verbs traffic
    #: (docs/TRANSPORT.md): ``inproc`` (single-process simulated DMA, the
    #: default) or ``shm`` (``multiprocessing.shared_memory`` mirrored
    #: buffers + a doorbell socket per QP, usable across OS processes).
    #: Both sides of a channel must agree.
    transport: str = "inproc"

    def __post_init__(self) -> None:
        if self.block_alignment & (self.block_alignment - 1):
            raise ValueError("block_alignment must be a power of two")
        if self.block_size < self.block_alignment:
            raise ValueError("block_size must be >= block_alignment")
        if self.send_buffer_size % self.block_alignment:
            raise ValueError("send_buffer_size must be a multiple of block_alignment")
        if self.credits < 1:
            raise ValueError("credits must be >= 1")
        if self.concurrency > (1 << 16):
            raise ValueError("concurrency exceeds the 2^16 request-ID space")
        if self.request_deadline_ticks < 0:
            raise ValueError("request_deadline_ticks must be >= 0")
        if self.transport not in ("inproc", "shm"):
            raise ValueError(
                f"unknown transport {self.transport!r} (expected 'inproc' or 'shm')"
            )

    def credit_check(self, message_size: int) -> bool:
        """The paper's §VI-A sizing rule: for true concurrency,
        credits > concurrency * blocksize / msgsize is *not* required —
        rather credits must exceed the number of blocks the concurrent
        requests occupy: credits > concurrency * msgsize / blocksize."""
        blocks_needed = max(1, (self.concurrency * max(1, message_size)) // self.block_size)
        return self.credits > blocks_needed


#: Table I client (DPU) configuration.
CLIENT_DEFAULTS = ProtocolConfig(
    block_size=8 * KIB,
    block_alignment=KIB,
    credits=256,
    send_buffer_size=3 * MIB,
    recv_buffer_size=16 * MIB,
    concurrency=1024,
    threads=16,
)

#: Table I server (host) configuration.
SERVER_DEFAULTS = ProtocolConfig(
    block_size=8 * KIB,
    block_alignment=KIB,
    credits=256,
    send_buffer_size=16 * MIB,
    recv_buffer_size=3 * MIB,
    concurrency=1024,
    threads=8,
)
