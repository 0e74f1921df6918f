"""Credit-based congestion management (§IV-C).

One credit per block in processing: sending a block consumes a credit,
an acknowledged block replenishes one.  When the count reaches zero the
sender must stop — transmitting anyway would overrun the receiver's
completion/receive queues and trigger the retransmission collapse the
paper warns about.  Client and server keep *separate* credit pools since
their block counts differ.
"""

from __future__ import annotations

__all__ = ["CreditError", "CreditManager"]


class CreditError(RuntimeError):
    """Credit accounting violated (over-replenish or forced overdraft)."""


class CreditManager:
    """Counter with floor 0 and ceiling ``initial``.  Its fields are the
    state: an endpoint's send path takes and returns a block's credit by
    the rules of :meth:`consume` and :meth:`replenish` in place (one per
    block, no call)."""

    def __init__(self, initial: int) -> None:
        if initial < 1:
            raise ValueError("initial credits must be >= 1")
        self.initial = initial
        self.available = initial
        #: lowest value ever observed; the paper's experiments require the
        #: credits "never reach zero" — this makes that checkable.
        self.low_watermark = initial
        self.stalls = 0  # times a send found zero credits

    def consume(self) -> bool:
        """Take one credit; returns False (and counts a stall) at zero."""
        if self.available == 0:
            self.stalls += 1
            return False
        self.available -= 1
        self.low_watermark = min(self.low_watermark, self.available)
        return True

    def replenish(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.available + count > self.initial:
            raise CreditError(
                f"replenish overflows: {self.available} + {count} > {self.initial}"
            )
        self.available += count
