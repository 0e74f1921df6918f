"""Simulated RDMA verbs objects: the libibverbs analog.

Models the resources the paper's protocol is built from (§II-A, §III-C):
protection domains, registered memory regions with access rights and keys,
work requests/completions, completion queues with finite capacity, and
completion channels for sleep-based polling.

Failure semantics matter more than speed here: queue overflows, missing
receive WQEs (RNR), and protection violations are the hazards the paper's
credit-based congestion control and block recycling exist to prevent, so
the simulation makes them loud, observable events rather than silently
absorbing them.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.memory import AddressSpace, MemoryRegion

__all__ = [
    "VerbsError",
    "ProtectionError",
    "QueueOverflowError",
    "RegistrationError",
    "FlushBudgetExceeded",
    "Access",
    "Opcode",
    "WcStatus",
    "ProtectionDomain",
    "RegisteredMemory",
    "WorkRequest",
    "WorkCompletion",
    "CompletionQueue",
    "CompletionChannel",
    "FabricTransport",
]


class VerbsError(RuntimeError):
    """Base class for simulated verbs failures."""


class ProtectionError(VerbsError):
    """Access outside a registered region or without the needed rights."""


class QueueOverflowError(VerbsError):
    """A CQ or receive queue overflowed — the catastrophic event the
    paper's credit system prevents (§IV-C)."""


class FlushBudgetExceeded(VerbsError):
    """:meth:`FabricTransport.flush` ran out of step budget with work
    still in flight.  Before this existed, an exhausted flush *silently
    returned* and the caller proceeded on a half-drained wire — the worst
    kind of transport bug, because nothing downstream can tell a drained
    fabric from a wedged one.  The exception carries enough state for a
    supervisor to decide between retrying and resetting the channel."""

    def __init__(self, transport_name: str, steps: int, in_flight: int) -> None:
        super().__init__(
            f"{transport_name}: flush budget exhausted after {steps} steps "
            f"with {in_flight} operation(s) still in flight"
        )
        self.steps = steps
        self.in_flight = in_flight


class Access(enum.Flag):
    LOCAL_READ = enum.auto()  # implicit in real verbs; explicit here
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()


class Opcode(enum.Enum):
    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_with_imm"
    #: responder-side completion of a WRITE_WITH_IMM (ibv's
    #: IBV_WC_RECV_RDMA_WITH_IMM) — distinct from the requester's send
    #: completion, which reuses RDMA_WRITE_WITH_IMM.
    RECV_RDMA_WITH_IMM = "recv_rdma_with_imm"
    RDMA_READ = "rdma_read"


class WcStatus(enum.Enum):
    SUCCESS = "success"
    LOCAL_PROTECTION_ERROR = "local_protection_error"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    RNR_RETRY_EXCEEDED = "rnr_retry_exceeded"
    WR_FLUSH_ERROR = "wr_flush_error"


_key_counter = itertools.count(0x1000)


class RegistrationError(VerbsError):
    """Memory registration failed (pinning limit, injected fault...)."""


class ProtectionDomain:
    """Groups MRs and QPs that may work together (§II-A)."""

    def __init__(self, space: AddressSpace, name: str = "pd") -> None:
        self.space = space
        self.name = name
        self._regions: list[RegisteredMemory] = []
        #: optional fault-injection hook (see repro.faults.injector); when
        #: set, registration consults it and may fail with
        #: :class:`RegistrationError` — the "pinning denied" hazard real
        #: drivers hit under memlock limits.
        self.injector = None

    def register_memory(
        self, region: MemoryRegion, access: Access = Access.LOCAL_WRITE
    ) -> "RegisteredMemory":
        """Register (pin) ``region`` for RDMA with the given access."""
        if self.injector is not None:
            self.injector.on_register_memory(self, region)
        mr = RegisteredMemory(self, region, access, next(_key_counter), next(_key_counter))
        self._regions.append(mr)
        return mr

    def deregister(self, mr: "RegisteredMemory") -> None:
        self._regions.remove(mr)

    def find_remote_writable(self, addr: int, length: int) -> "RegisteredMemory":
        """The MR a remote WRITE to [addr, addr+length) lands in."""
        end = addr + length
        for mr in self._regions:
            region = mr.region
            if region.base <= addr and end <= region.base + region.size:
                if not mr.remote_write:
                    raise ProtectionError(
                        f"{self.name}: MR {region.name} not REMOTE_WRITE"
                    )
                return mr
        raise ProtectionError(
            f"{self.name}: no MR covers remote write [{addr:#x}, {end:#x})"
        )

    def check_local(self, addr: int, length: int) -> None:
        end = addr + length
        for mr in self._regions:
            region = mr.region
            if region.base <= addr and end <= region.base + region.size:
                return
        raise ProtectionError(
            f"{self.name}: no MR covers local access [{addr:#x}, {end:#x})"
        )


@dataclass(slots=True)
class RegisteredMemory:
    """A pinned, registered memory region with local/remote keys."""

    pd: ProtectionDomain
    region: MemoryRegion
    access: Access
    lkey: int
    rkey: int
    #: ``REMOTE_WRITE in access`` (Python-level Flag code), asked once
    remote_write: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.remote_write = Access.REMOTE_WRITE in self.access


@dataclass(slots=True)
class WorkRequest:
    """A posted send-queue element."""

    wr_id: int
    opcode: Opcode
    local_addr: int = 0
    length: int = 0
    remote_addr: int = 0
    imm_data: int | None = None


@dataclass(slots=True)
class WorkCompletion:
    """A completion-queue entry."""

    wr_id: int
    opcode: Opcode
    status: WcStatus = WcStatus.SUCCESS
    byte_len: int = 0
    imm_data: int | None = None
    #: an inbound SEND's bytes, handed over on its RECV completion
    payload: bytes | None = None


@dataclass
class CompletionQueue:
    """Finite-capacity CQ.  Overflow raises — in real RDMA it silently
    corrupts the connection, which is strictly worse."""

    capacity: int
    name: str = "cq"
    _entries: deque = field(default_factory=deque)
    channel: "CompletionChannel | None" = None
    #: whether the next push raises an event on ``channel`` — one event
    #: per arm, as ``ibv_req_notify_cq`` arms one; ``get_events`` re-arms
    _armed: bool = field(default=True, init=False, repr=False)

    def push(self, wc: WorkCompletion, qp=None) -> None:
        """The one way a completion enters the CQ.  One a QP pushes
        (``qp``) is offered to that QP's fault injector first, which may
        swallow it (drop, delay) or push it itself, possibly more than
        once (duplicate) — without ``qp``, so never offered twice."""
        if qp is not None and qp.injector is not None and qp.injector.deliver_completion(
                qp, self, wc):
            return
        entries = self._entries
        if len(entries) >= self.capacity:
            raise QueueOverflowError(
                f"{self.name}: CQ overflow at {self.capacity} entries "
                "(credit accounting failed to bound in-flight work)"
            )
        entries.append(wc)
        if self._armed and self.channel is not None:
            self._armed = False
            self.channel.notify(self)

    def poll(self, max_entries: int = 16) -> list[WorkCompletion]:
        entries = self._entries
        if len(entries) > max_entries:
            return [entries.popleft() for _ in range(max_entries)]
        out = list(entries)
        entries.clear()
        return out

    def __len__(self) -> int:
        return len(self._entries)


class CompletionChannel:
    """Event channel for sleep-based completion waiting.

    The paper uses ``poll()`` on completion channels instead of busy
    polling to avoid pinning cores at 100% under low load (§III-C).  The
    channel lists each CQ that became ready since it was last armed —
    at most once, however many completions it took meanwhile;
    ``get_events`` hands the list out and re-arms those CQs.
    """

    def __init__(self) -> None:
        self._ready: list[CompletionQueue] = []

    def notify(self, cq: CompletionQueue) -> None:
        """List ``cq`` as ready; an armed CQ calls this on its first push."""
        self._ready.append(cq)

    def get_events(self) -> list[CompletionQueue]:
        out, self._ready = self._ready, []
        for cq in out:
            cq._armed = True
        return out

    def has_events(self) -> bool:
        return bool(self._ready)


class FabricTransport:
    """The verbs-provider contract every fabric backend implements.

    A *fabric* is whatever moves posted work requests between connected
    QPs and resolves them into completions: the in-process ``Fabric``
    models the DMA engine with direct byte copies between the two
    simulated memories; ``ShmFabric`` does the same across OS process
    boundaries over ``multiprocessing.shared_memory`` plus a doorbell
    socket per QP.  Everything above the QP layer — endpoints, recovery,
    the fault injector, tracing — talks only to this interface, so a
    backend swap is invisible to the protocol.

    The contract, beyond the methods below:

    * per-QP reliable-connection ordering (ops delivered in post order);
    * ``WRITE_WITH_IMM`` delivers payload bytes into the responder's
      registered memory *before* the ``RECV_RDMA_WITH_IMM`` completion
      becomes pollable (completion-after-write visibility);
    * RNR retries up to the sender QP's ``rnr_retry`` budget, then the
      send completes ``RNR_RETRY_EXCEEDED``;
    * a remote write no REMOTE_WRITE MR of the peer covers completes the
      send ``REMOTE_ACCESS_ERROR`` — nothing is written, nothing raises
      out of ``post_send`` — and errors the requester QP;
    * injector hooks fire at the same points on every backend:
      ``on_transmit`` (payload snapshot at post time), ``on_op``
      (verdicts at delivery time), ``tick`` (once per :meth:`step`), and
      every completion a QP pushes offered to its injector
      (:meth:`CompletionQueue.push` with the QP).
    """

    #: registry name of the backend ("inproc", "shm"); subclasses set it.
    transport = "abstract"

    def __init__(self, auto_flush: bool = True, injector=None) -> None:
        self.auto_flush = auto_flush
        #: optional fault-injection hook (see repro.faults.injector): may
        #: corrupt payload snapshots at post time, drop whole operations,
        #: or force a QP into ERROR mid-delivery.
        self.injector = injector
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None
        # -- statistics shared by every backend -------------------------------
        self.total_bytes = 0
        self.total_operations = 0
        self.rnr_retransmissions = 0
        self.flushed_operations = 0
        #: times flush() exhausted its step budget with work in flight
        #: (each raised a FlushBudgetExceeded at the caller).
        self.flush_budget_exhausted = 0

    # -- the backend contract --------------------------------------------------

    def connect(self, a: QueuePair, b: QueuePair) -> None:  # noqa: F821
        """Bring two INIT QPs to RTS, joined through this fabric."""
        raise NotImplementedError

    def transmit(self, sender, wr: WorkRequest) -> None:
        """Accept a posted WR for in-order delivery; snapshots the payload
        at post time (HCA semantics: the send buffer may be reused only
        after the send completion)."""
        raise NotImplementedError

    def step(self) -> bool:
        """Resolve at most one unit of transport work; False when idle."""
        raise NotImplementedError

    def flush_qp(self, qp) -> int:
        """Complete every in-flight op posted by ``qp`` with
        ``WR_FLUSH_ERROR`` (the QP's to_error storm); returns the count."""
        raise NotImplementedError

    def discard_in_flight(self) -> int:
        """Drop all queued operations without completions — the recovery
        teardown's 'cable pull'.  Returns the number discarded."""
        raise NotImplementedError

    @property
    def in_flight(self) -> int:
        """Operations accepted but not yet resolved into completions."""
        raise NotImplementedError

    # -- shared driving loop ---------------------------------------------------

    def flush(self, max_steps: int = 1_000_000) -> int:
        """Step until the wire drains (or goes quiet); returns steps taken.

        Raises :class:`FlushBudgetExceeded` — and counts it in
        ``flush_budget_exhausted`` — when the budget runs out with work
        still in flight, instead of silently returning on a half-drained
        wire."""
        steps = 0
        while self.in_flight and steps < max_steps:
            if not self.step():
                break
            steps += 1
        if self.in_flight and steps >= max_steps:
            self.flush_budget_exhausted += 1
            raise FlushBudgetExceeded(type(self).__name__, steps, self.in_flight)
        return steps

    # -- pollable protocol (repro.runtime) -------------------------------------

    def pending(self) -> bool:
        return self.in_flight > 0

    def progress(self, budget: int | None = None) -> int:
        """Drive the fabric as a ProgressEngine pollable: resolve up to
        ``budget`` units of work (all ready work when None)."""
        work = 0
        while (budget is None or work < budget) and self.step():
            work += 1
        return work
