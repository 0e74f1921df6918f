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
    """Counter with floor 0 and ceiling ``initial``."""

    def __init__(self, initial: int) -> None:
        if initial < 1:
            raise ValueError("initial credits must be >= 1")
        self.initial = initial
        self._credits = initial
        #: lowest value ever observed; the paper's experiments require the
        #: credits "never reach zero" — this makes that checkable.
        self.low_watermark = initial
        self.stalls = 0  # times a send found zero credits

    @property
    def available(self) -> int:
        return self._credits

    def can_send(self) -> bool:
        return self._credits > 0

    def consume(self) -> bool:
        """Take one credit; returns False (and counts a stall) at zero."""
        if self._credits == 0:
            self.stalls += 1
            return False
        self._credits -= 1
        self.low_watermark = min(self.low_watermark, self._credits)
        return True

    def replenish(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if self._credits + count > self.initial:
            raise CreditError(
                f"replenish overflows: {self._credits} + {count} > {self.initial}"
            )
        self._credits += count
