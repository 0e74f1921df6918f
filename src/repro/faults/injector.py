"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
through the hooks threaded into the RDMA layer.

One injector attaches to one channel's fabric, both queue pairs, and
both protection domains (:meth:`FaultInjector.attach`).  From then on it
sees every opportunity the simulated hardware offers for something to go
wrong:

* ``on_transmit`` — payload bytes captured at post time (bit flips);
* ``on_op`` — each operation the fabric is about to deliver (dropped
  operations, forced QP errors, and the control faults — DPU crash and
  revival — announced to :attr:`on_control`);
* ``deliver_completion`` — each CQE a QP is about to push (drop, delay,
  duplicate);
* ``on_register_memory`` — each registration attempt
  (:class:`~repro.rdma.RegistrationError`).

Everything it does is appended to :attr:`events` in firing order;
:meth:`fingerprint` hashes that log, so two runs with the same plan and
workload can be compared byte-for-byte — the determinism contract the
campaign runner (``repro.faults.campaign``) enforces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.rdma import RegistrationError, WorkCompletion

from .plan import FaultPlan, FaultSpec

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    index: int  # event sequence number
    kind: str
    category: str  # opportunity category
    count: int  # category counter when it fired
    target: str  # qp/pd name
    detail: str = ""

    def render(self) -> str:
        return f"#{self.index} {self.kind}@{self.category}:{self.count} {self.target} {self.detail}"


class FaultInjector:
    """Executes a plan against one channel's RDMA resources."""

    def __init__(self, plan: FaultPlan, on_control=None) -> None:
        self.plan = plan
        #: called with the :class:`FaultSpec` when a control fault
        #: (``dpu_crash`` / ``dpu_revive``) fires; the harness owns the
        #: engine object, the injector only announces the event.
        self.on_control = on_control
        self.events: list[FaultEvent] = []
        #: StageRecorder (repro.obs): fault firings land in the same
        #: collector as the request stages — a campaign fingerprint is
        #: replayable as a trace (docs/OBSERVABILITY.md).
        self.trace = None
        # -- opportunity counters (1-based at first opportunity) --------------
        self.transmits = 0
        self.ops = 0
        self.completions = 0
        self.registrations = 0
        self._fires = [0] * len(plan.specs)
        #: logical clock advanced by :meth:`tick`; delayed completions
        #: release against it
        self._now = 0
        self._delayed: list[tuple[int, object, WorkCompletion]] = []  # (release_at, cq, wc)

    # -- attachment ------------------------------------------------------------

    def attach(self, channel) -> "FaultInjector":
        """Wire this injector into a :class:`~repro.core.channel.Channel`:
        the fabric, both QPs, and both PDs.  A one-sided channel (the
        multiprocess deployments of :mod:`repro.runtime.procs`) attaches
        whatever sides are local — each process runs its own injector
        against its own half of the connection."""
        channel.fabric.injector = self
        for side in (channel.client, channel.server):
            if side is not None:
                side.qp.injector = self
                side.qp.pd.injector = self
        return self

    def detach(self, channel) -> None:
        channel.fabric.injector = None
        for side in (channel.client, channel.server):
            if side is not None:
                side.qp.injector = None
                side.qp.pd.injector = None

    # -- trigger evaluation ------------------------------------------------------

    def _fire(self, i: int, spec: FaultSpec, count: int, target: str, detail: str = "") -> None:
        self._fires[i] += 1
        self.events.append(
            FaultEvent(len(self.events), spec.kind, spec.category, count, target, detail)
        )
        if self.trace is not None:
            self.trace.instant(spec.kind, category=spec.category, count=count,
                               target=target, detail=detail)

    def _matches(self, i: int, spec: FaultSpec, category: str, count: int, name: str) -> bool:
        if spec.category != category or self._fires[i] >= spec.max_fires:
            return False
        if spec.side is not None and spec.side not in name:
            return False
        if spec.at_count is not None:
            return count == spec.at_count
        # Probability draws happen only when the spec is otherwise armed,
        # keeping the RNG call sequence a pure function of the run.
        return self.plan.rng.random() < spec.probability

    # -- hook: fabric.transmit ----------------------------------------------------

    def on_transmit(self, sender, wr, payload):
        """May corrupt the payload snapshot the fabric just captured."""
        self.transmits += 1
        if payload is None:
            return payload
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "bitflip" and self._matches(
                i, spec, "transmit", self.transmits, sender.name
            ):
                offset = (
                    spec.byte_offset
                    if spec.byte_offset is not None
                    else self.plan.rng.randrange(len(payload))
                ) % len(payload)
                corrupted = bytearray(payload)
                corrupted[offset] ^= 1 << self.plan.rng.randrange(8)
                self._fire(i, spec, self.transmits, sender.name, f"byte={offset}")
                payload = bytes(corrupted)
        return payload

    # -- hook: fabric.step --------------------------------------------------------

    def on_op(self, fabric, sender, wr):
        """Verdict for the operation about to be delivered: ``"drop_op"``,
        ``"qp_error"``, or None.  Control faults fire here too (the op
        counter is the campaign's logical timeline) but return nothing."""
        self.ops += 1
        verdict = None
        for i, spec in enumerate(self.plan.specs):
            if not self._matches(i, spec, "op", self.ops, sender.name):
                continue
            if spec.kind in ("dpu_crash", "dpu_revive"):
                self._fire(i, spec, self.ops, sender.name)
                if self.on_control is not None:
                    self.on_control(spec)
            elif verdict is None:  # first datapath verdict wins
                self._fire(i, spec, self.ops, sender.name, f"wr={wr.wr_id}")
                verdict = spec.kind
        return verdict

    def tick(self, fabric=None) -> None:
        """Advance the delay clock; called by the fabric every step (and
        usable directly by harness drive loops)."""
        self._now += 1
        self._release_due()

    # -- hook: CompletionQueue.push (a QP's completions) --------------------------

    def deliver_completion(self, qp, cq, wc: WorkCompletion) -> bool:
        """Returns True when the injector consumed the completion (it was
        dropped, delayed, or pushed — possibly more than once — itself);
        False lets the QP push normally."""
        self._release_due()
        self.completions += 1
        for i, spec in enumerate(self.plan.specs):
            if not self._matches(i, spec, "completion", self.completions, qp.name):
                continue
            detail = f"wr={wc.wr_id} op={wc.opcode.value} st={wc.status.value}"
            if spec.kind == "drop_completion":
                self._fire(i, spec, self.completions, qp.name, detail)
                return True
            if spec.kind == "delay_completion":
                self._fire(
                    i, spec, self.completions, qp.name, f"{detail} ticks={spec.delay_ticks}"
                )
                self._delayed.append((self._now + spec.delay_ticks, cq, wc))
                return True
            if spec.kind == "duplicate_completion":
                self._fire(i, spec, self.completions, qp.name, detail)
                cq.push(wc)  # direct pushes bypass re-injection
                cq.push(wc)
                return True
        return False

    def _release_due(self) -> None:
        if not self._delayed:
            return
        due = [d for d in self._delayed if d[0] <= self._now]
        self._delayed = [d for d in self._delayed if d[0] > self._now]
        for _, cq, wc in due:
            cq.push(wc)

    def discard_delayed(self) -> int:
        """Drop every held-back completion — connection recovery calls
        this through the fabric ('pulling the cable' destroys queued
        events along with queued operations)."""
        n = len(self._delayed)
        self._delayed.clear()
        return n

    @property
    def delayed_held(self) -> int:
        return len(self._delayed)

    # -- hook: pd.register_memory -------------------------------------------------

    def on_register_memory(self, pd, region) -> None:
        self.registrations += 1
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "registration_failure" and self._matches(
                i, spec, "registration", self.registrations, pd.name
            ):
                self._fire(i, spec, self.registrations, pd.name, region.name)
                raise RegistrationError(
                    f"{pd.name}: registration of {region.name} denied (injected)"
                )

    # -- reporting ---------------------------------------------------------------

    @property
    def faults_fired(self) -> int:
        return len(self.events)

    def fingerprint(self) -> str:
        """Hash of the fault-event sequence: equal fingerprints mean the
        same faults fired at the same opportunities against the same
        targets."""
        h = hashlib.sha256()
        for event in self.events:
            h.update(event.render().encode())
            h.update(b"\n")
        return h.hexdigest()

    def summary(self) -> str:
        return (
            f"injector[seed={self.plan.seed}]: fired={self.faults_fired} "
            f"ops={self.ops} transmits={self.transmits} "
            f"completions={self.completions} held={self.delayed_held}"
        )
