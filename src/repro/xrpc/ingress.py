"""The front door both xRPC servers share.

The offloaded server *is* the host-parse server with a different back
half (§III-A: clients only change the server address), so everything a
client can observe before its request is served is written here once:
accept, deframe, two priority lanes, the expired-on-arrival drop and
the admission shed (docs/OVERLOAD.md), the WIRE_FIXED SETUP answer
(docs/PROTOCOL.md) — and the one answer to a served request that
failed (docs/FAULTS.md §3).  A subclass states the four things that differ: its
stage names, the engine behind the door (:attr:`Ingress.dpu`), the types
it negotiates over, and what happens to an admitted request.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.core.wire import Flags, MessageTooLarge
from repro.proto.fixed_wire import negotiation_hash
from repro.proto.wire_format import WireFormatError
from repro.runtime.overload import deadline_expired

from .framing import (
    FrameDecoder,
    FrameType,
    FramingError,
    StatusCode,
    append_response,
    encode_overload_detail,
    encode_setup_ack,
)
from .transport import ConnectionClosed, Listener, Network, SimSocket

__all__ = ["Ingress", "outcome"]


def outcome(fault) -> tuple[int, bool]:
    """The outcome table of docs/FAULTS.md §3 in code: the status that
    answers a failed request, and whether what the failure said crosses
    to the client as detail — only where it is protocol
    (docs/OVERLOAD.md), never what host-side code said of itself.
    ``fault`` is the exception serving the request raised at this door,
    or the flags of the ERROR record the datapath behind it answered."""
    if isinstance(fault, int):
        if fault & Flags.EXPIRED:
            return StatusCode.DEADLINE_EXCEEDED, True
        if fault & Flags.ABORTED:  # the library gave up: retryable, INTERNAL is not
            return StatusCode.ABORTED, True
        malformed = fault & Flags.MALFORMED
    else:
        # The payload's fault: the wire-format family, and a request too
        # large for the DPU -> host protocol (the baseline has no limit).
        malformed = isinstance(fault, (WireFormatError, MessageTooLarge))
    return (StatusCode.INVALID_ARGUMENT if malformed else StatusCode.INTERNAL), False


@dataclass(eq=False)
class _Connection:
    socket: SimSocket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    #: response frames of this pass, sent in one ``send`` at its end
    out: bytearray = field(default_factory=bytearray)
    #: False once the front door let go of it (a late reply is dropped)
    alive: bool = True


class Ingress:
    """Single-threaded, poll-driven xRPC termination: one
    :meth:`progress` pass accepts, deframes, and hands each admitted
    request to the subclass."""

    #: stages named by the answer to a request dropped expired-on-arrival
    #: (also its counter's key) and to one shed by admission control
    EXPIRED_STAGE = SHED_STAGE = "dispatch"
    #: The :class:`~repro.offload.engine.DpuEngine` admitted requests are
    #: forwarded to — its in-flight requests count into the admission
    #: depth and it is progressed after the lanes; None serves in place.
    dpu = None

    def __init__(self, network: Network | None, address: str) -> None:
        """With ``network=None`` the server starts without a listener;
        connections arrive through :meth:`adopt` instead (the multiprocess
        deployments hand it :class:`~repro.xrpc.transport.StreamSocket`
        ends of pre-established OS socketpairs)."""
        self.address = address
        self.listener: Listener | None = (
            network.listen(address) if network is not None else None
        )
        self._connections: list[_Connection] = []
        #: AdmissionController (repro.runtime.overload) — None admits
        #: everything with zero overhead (docs/OVERLOAD.md)
        self.admission = None
        #: requests dropped expired-on-arrival, before any decode work
        self.deadline_expired = {self.EXPIRED_STAGE: 0}
        # Two priority lanes of decoded-but-unserved requests:
        # (conn, frame).  The latency lane always drains
        # first; with budget=None both drain fully every pass, so the
        # lanes only reorder under an explicit per-pass budget.
        self._lanes = (deque(), deque())
        #: WIRE_FIXED negotiations answered (match, mismatch) — observability
        self.setup_matches = 0
        self.setup_mismatches = 0
        #: connections closed because their stream failed framing
        self.framing_errors = 0
        #: replies dropped because their client had hung up meanwhile
        self.replies_dropped = 0
        #: failed requests answered through :func:`outcome`, by status
        self.request_faults: Counter = Counter()
        #: StageRecorder (repro.obs) — None keeps every hook free.
        self.trace = None

    def adopt(self, socket: SimSocket) -> None:
        """Serve a pre-established connection (no listener involved)."""
        self._connections.append(_Connection(socket))

    def sockets(self) -> list:
        """The sockets of the connections it serves — what a process that
        waits between passes waits on."""
        return [conn.socket for conn in self._connections]

    # -- event loop -----------------------------------------------------------

    def progress(self, budget: int | None = None) -> int:
        """One event-loop pass: accept, deframe, serve each request in one
        ``_serve`` call (in place, or from the lanes), then advance the
        engine behind the door, whose responses fire continuations.
        Returns the requests served plus the responses delivered, so a
        process that parks when a pass did nothing sees both.  ``budget``
        caps the requests *served* (drops and sheds are never charged);
        unserved ones wait in their lane and count into the depth
        admission control judges (docs/OVERLOAD.md)."""
        while self.listener is not None and (sock := self.listener.accept()) is not None:
            self.adopt(sock)
        lanes = self._lanes
        served = 0
        gone = []
        for conn in self._connections:
            data = conn.socket.recv(1 << 20)
            if not data:  # (the last drain left no complete frame)
                if conn.socket.eof():
                    gone.append(conn)
                continue
            conn.decoder.feed(data)
            try:
                for frame in conn.decoder.frames():
                    if frame.frame_type is FrameType.SETUP:
                        self._answer_setup(conn, frame.method)
                    elif frame.frame_type is not FrameType.REQUEST:
                        continue
                    elif (
                        frame.deadline_word
                        or self.admission is not None
                        or lanes[0]
                        or (budget is not None and served >= budget)
                    ):
                        # It has to wait — to be judged by the overload
                        # checks, for its lane's turn or for the budget.
                        lanes[frame.deadline_word & 1].append((conn, frame))
                    else:
                        # Nothing is ahead of it and no one to ask: it is
                        # served where it was decoded.
                        served += 1
                        mark = len(conn.out)
                        try:
                            self._serve(conn, frame, 0)
                        except BaseException as exc:
                            self._contain(conn, frame.call_id, mark, exc)
            except FramingError:
                # It can not be resynchronized: the connection ends with
                # this pass, every other one is served (docs/FAULTS.md).
                self.framing_errors += 1
                gone.append(conn)
        for lane, queue in enumerate(self._lanes):
            while queue and (budget is None or served < budget):
                conn, frame = queue.popleft()
                if not conn.alive or conn.socket.eof():
                    continue  # client gone; a reply would be dropped anyway
                if self._drop_or_shed(conn, frame, lane):
                    continue
                served += 1
                mark = len(conn.out)
                try:
                    self._serve(conn, frame, lane)
                except BaseException as exc:
                    self._contain(conn, frame.call_id, mark, exc)
        delivered = self.dpu.progress(budget) if self.dpu is not None else 0
        for conn in self._connections:
            if conn.out:
                # The pass's response frames for it leave in one send.  A
                # client that hung up loses its replies (counted), nobody
                # else's: nothing raises into the datapath behind them.
                out, conn.out = conn.out, bytearray()
                try:
                    conn.socket.send(out)
                except ConnectionClosed:
                    decoder = FrameDecoder()
                    decoder.feed(out)
                    self.replies_dropped += sum(1 for _ in decoder.frames())
        if gone:
            for conn in gone:
                conn.alive = False
                conn.socket.close()
            self._connections = [c for c in self._connections if c.alive]
        return served + delivered

    def _drop_or_shed(self, conn: _Connection, frame, lane: int) -> bool:
        """Overload checks ahead of any decode work: expired-on-arrival
        requests are dropped, then the admission controller may shed.
        With an engine behind the door the depth signal also counts the
        requests already in flight to the host — queueing at the PCIe
        handoff is where the tail lives (nanoPU, PAPERS.md).
        Returns True when the request was answered without serving."""
        word = frame.deadline_word
        if word and deadline_expired(word):
            self.deadline_expired[self.EXPIRED_STAGE] += 1
            if self.trace is not None:
                self.trace.instant("deadline_expired", stage=self.EXPIRED_STAGE,
                                   call_id=frame.call_id)
            self._respond(conn, frame.call_id, StatusCode.DEADLINE_EXCEEDED,
                          encode_overload_detail(self.EXPIRED_STAGE))
            return True
        if self.admission is None:
            return False
        depth = 1 + sum(len(q) for q in self._lanes)
        if self.dpu is not None:
            depth += self.dpu.channel.client.outstanding
        decision = self.admission.decide(lane, depth)
        if decision.admit:
            return False
        if self.trace is not None:
            self.trace.instant("shed", lane=lane, call_id=frame.call_id,
                               reason=decision.reason)
        self._respond(
            conn, frame.call_id, StatusCode.RESOURCE_EXHAUSTED,
            encode_overload_detail(self.SHED_STAGE, decision.retry_after_ticks),
        )
        return True

    def _contain(self, conn: _Connection, call_id: int, mark: int,
                 exc: BaseException) -> None:
        """A request that fails costs itself (docs/FAULTS.md §3): what its
        ``_serve`` call raised is answered here, no half-built frame left
        (the output goes back to ``mark``), by the outcome table."""
        del conn.out[mark:]
        if not isinstance(exc, Exception):
            raise exc
        status, _ = outcome(exc)
        self.request_faults[status] += 1
        self._respond(conn, call_id, status, b"")

    def _answer_setup(self, conn: _Connection, offered_hash: str) -> None:
        """WIRE_FIXED negotiation: compare the client's layout hash with
        our own over :meth:`_registered_types` — the negotiation that
        makes the branchless decoder safe to select per frame.
        Stateless — the answer only informs the *client*; each frame
        carries its wire mode, so the server never needs per-connection
        mode state."""
        mine = negotiation_hash(self._registered_types())
        if offered_hash == mine:
            self.setup_matches += 1
            conn.out += encode_setup_ack(StatusCode.OK)
        else:
            self.setup_mismatches += 1
            conn.out += encode_setup_ack(StatusCode.INVALID_ARGUMENT)
        if self.trace is not None:
            self.trace.instant("wire_fixed_setup", match=offered_hash == mine)

    def _respond(self, conn: _Connection, call_id: int, status: int,
                 message: bytes) -> None:
        append_response(conn.out, call_id, status, message)

    # -- what a subclass states -----------------------------------------------

    def _registered_types(self) -> list:
        """Every request/response type this server answers for."""
        raise NotImplementedError

    def _serve(self, conn: _Connection, frame, lane: int) -> None:
        """What follows the lanes: answer one admitted request — in
        place, or by forwarding it (what goes wrong in it is raised)."""
        raise NotImplementedError
