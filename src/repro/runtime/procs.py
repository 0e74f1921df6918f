"""Multiprocess deployment supervisor for the ``shm`` transport.

The single-process stack simulates the paper's three machines — client,
DPU, host — inside one address space.  This module runs them as three
real OS processes joined by the pieces the ``shm`` backend provides:

* **shared block arenas** — each mirrored receive buffer is one
  ``multiprocessing.shared_memory`` segment, created (and eventually
  unlinked) by the parent, attached by name in the child that owns that
  RBuf.  The sender-side fabric maps the peer's segment and plays the
  DMA engine, so the zero-copy ``memoryview`` datapath crosses the
  process boundary unchanged;
* **doorbells** — one ``AF_UNIX`` socketpair per QP pair carries the
  OP/ACK frames (:mod:`repro.rdma.shm_fabric`);
* **xRPC** — the client process talks to the DPU front end over another
  socketpair via :class:`~repro.xrpc.transport.StreamSocket`;
* **control** — each child holds a control socket to the parent:
  length-prefixed pickled ``(command, payload)`` tuples, with
  ``SCM_RIGHTS`` file-descriptor passing for reconnect doorbells.

Topology: the *parent* process is the client (it drives
:class:`~repro.xrpc.channel.XrpcChannel`); the two children run the DPU
engine + xRPC front end and the host engine respectively.  A child waits
on its sockets between passes instead of spinning: one readiness poll
per pass, parked in it after a pass that did nothing
(:meth:`_ChildSide._loop`, docs/RUNTIME.md "The child loop").

Crash propagation: the parent registers one :class:`ProcessPollable` per
child with its progress engine; a child that dies unexpectedly raises
:class:`~repro.core.endpoint.TransportError` into the engine's
:class:`~repro.runtime.supervisor.EngineSupervisor` — the same
containment path in-process transport faults take.  Recovery
(:meth:`ProcSupervisor.recover_dpu`) respawns the DPU process and hands
the host a fresh doorbell over the control socket; until the new process
is re-bootstrapped the front end serves through the host-parse failover
path (``DpuEngine.ready`` is False), so the kill shows up as degradation,
never unavailability.

Orphan cleanup: a child whose control socket reaches EOF (the parent
died) tears down its channel — mappings closed, doorbells closed — and
exits; the segment itself disappears when the creating side unlinks (or,
for abnormal exits, when the resource tracker sweeps).

This module sits *on top of* the rest of ``repro`` (it builds channels,
engines, and xRPC pieces), unlike the rest of the runtime package.  It is
deliberately not imported from ``repro.runtime.__init__`` so the
package's no-upward-imports rule keeps holding for the layers below;
import it as ``repro.runtime.procs``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import select
import signal
import socket as socketlib
import struct
import time
from dataclasses import dataclass

from repro.core.channel import AddressPlanner, Channel, build_endpoint_side, check_config_pair
from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS, ProtocolConfig
from repro.core.endpoint import TransportError
from repro.memory import SharedRegion
from repro.rdma import ShmFabric

from .engine import ProgressEngine
from .supervisor import EngineSupervisor

__all__ = ["ProcError", "ProcessPollable", "ProcSupervisor"]

_CTL_LEN = struct.Struct("<I")

#: How long a child whose last pass did nothing waits on its sockets
#: before it runs a pass anyway, in ms.  Bytes wake it at once; the
#: bound is for what advances by passes rather than by bytes —
#: supervisor stall ticks, an injector's delayed completion, request
#: deadlines counted in polls — which must keep moving with no traffic.
_PARK_MS = 1
#: The same wait while nothing advances by passes (nothing in flight,
#: no delayed completion): a safety bound only.  At 1 ms an idle child
#: would wake ~900 times a second, ~45 µs of CPU each on a 2-vCPU VM.
_IDLE_PARK_MS = 100
#: what a child waits for on a socket: bytes to read, and room to write
#: while its own bytes wait to leave
_READ, _READ_WRITE = select.POLLIN, select.POLLIN | select.POLLOUT
#: how long a child waits for its peer's HELLO on the doorbell, in s
_HANDSHAKE_TIMEOUT_S = 10.0
#: each engine's supervisor: passes without progress before a stall,
#: faults before quarantine
_STALL_TICKS, _MAX_FAULTS = 500, 3
#: the DPU child's bootstrap receive: polls per attempt, and how long it
#: retries, in s
_BOOTSTRAP_POLLS, _BOOTSTRAP_WINDOW_S = 2000, 10.0
#: how long the parent waits for a child to answer a recovery step or
#: to exit, in s
_RECOVER_TIMEOUT_S, _STOP_TIMEOUT_S = 30.0, 10.0


class ProcError(RuntimeError):
    """A multiprocess-deployment control operation failed."""


# ---------------------------------------------------------------------------
# Control-plane connection
# ---------------------------------------------------------------------------


class _CtlConn:
    """One end of a parent<->child control socket: non-blocking, framed
    (u32 length + pickle), with SCM_RIGHTS fd passing for the messages
    that ship a new doorbell."""

    def __init__(self, sock) -> None:
        sock.setblocking(False)
        self.sock = sock
        self._rx = bytearray()
        self._fds: list[int] = []
        self.eof = False

    def send(self, obj, fds=()) -> None:
        data = pickle.dumps(obj)
        frame = _CTL_LEN.pack(len(data)) + data
        if fds:
            # fd-carrying messages are tiny (reconnect); one sendmsg keeps
            # the ancillary data attached to the right frame.
            socketlib.send_fds(self.sock, [frame], list(fds))
            return
        view = memoryview(frame)
        while view:
            try:
                n = self.sock.send(view)
            except BlockingIOError:
                select.select([], [self.sock], [], 1.0)
                continue
            except OSError as exc:
                raise ProcError(f"control send failed: {exc}") from exc
            view = view[n:]

    def _pump(self) -> None:
        while not self.eof:
            try:
                data, fds, _flags, _addr = socketlib.recv_fds(self.sock, 65536, 4)
            except BlockingIOError:
                return
            except OSError:
                self.eof = True
                return
            if fds:
                self._fds.extend(fds)
            if not data:
                self.eof = True
                return
            self._rx += data

    def poll(self):
        """One decoded message, or None when no complete frame waits."""
        self._pump()
        if len(self._rx) < _CTL_LEN.size:
            return None
        (n,) = _CTL_LEN.unpack_from(self._rx)
        if len(self._rx) < _CTL_LEN.size + n:
            return None
        obj = pickle.loads(bytes(self._rx[_CTL_LEN.size : _CTL_LEN.size + n]))
        del self._rx[: _CTL_LEN.size + n]
        return obj

    def wait(self, timeout: float = 30.0):
        """Block (with deadline) until one message arrives."""
        deadline = time.monotonic() + timeout
        while True:
            msg = self.poll()
            if msg is not None:
                return msg
            if self.eof:
                raise ProcError("control connection closed")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProcError(f"control request timed out after {timeout}s")
            select.select([self.sock], [], [], min(remaining, 0.1))

    def request(self, obj, timeout: float = 30.0, fds=()):
        """Send a command and wait for its ``(status, payload)`` reply;
        raises on an ``"err"`` status."""
        self.send(obj, fds=fds)
        status, payload = self.wait(timeout)
        if status != "ok":
            raise ProcError(f"{obj[0]} failed in child: {payload}")
        return payload

    def take_fds(self) -> list[int]:
        fds = self._fds
        self._fds = []
        return fds

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Crash propagation into the engine/supervisor machinery
# ---------------------------------------------------------------------------


@dataclass
class _Child:
    """Parent-side handle for one child process; the object identity is
    stable across respawns so registered pollables keep watching."""

    role: str
    proc: object = None
    ctl: _CtlConn | None = None
    expected_exit: bool = False
    death_reported: bool = False


class ProcessPollable:
    """Engine adapter that turns an unexpected child death into a
    :class:`~repro.core.endpoint.TransportError` — raised from its poll,
    so the engine's :class:`~repro.runtime.supervisor.EngineSupervisor`
    contains, counts, and reports it exactly like an in-process
    transport fault."""

    def __init__(self, child: _Child) -> None:
        self.child = child
        self.name = f"{child.role}-process"

    def progress(self, budget: int | None = None) -> int:
        child = self.child
        proc = child.proc
        if proc is None or child.expected_exit or child.death_reported:
            return 0
        if proc.is_alive():
            return 0
        child.death_reported = True
        raise TransportError(self.name, f"exited (code {proc.exitcode})")

    def pending(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class _SideSpec:
    """Everything a child needs to build its half of the channel (passed
    through ``fork``, so callables and schema objects ride along)."""

    role: str  # "host" | "dpu"
    name: str
    client_config: ProtocolConfig
    server_config: ProtocolConfig
    c2s_base: int
    s2c_base: int
    rbuf_segment: str
    trace: bool
    fault_plan: object | None = None


def _close_all(socks) -> None:
    for s in socks:
        try:
            s.close()
        except OSError:
            pass


def _child_preamble(close_socks) -> None:
    # The parent owns the terminal; children must not react to a Ctrl-C
    # meant for it (teardown arrives via the control socket instead).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _close_all(close_socks)


def _export_and_clear(collector):
    if collector is None:
        return None
    from repro.obs import export_events

    snapshot = export_events(collector)
    collector.clear()
    return snapshot


def _answer_control(ctl: _CtlConn, handlers, on_exit) -> bool:
    """Answer the command the control socket holds (the parent has at
    most one outstanding: every command is a request that waits for its
    reply); False when the child should leave — told to exit, or EOF:
    the parent is gone (orphan cleanup)."""
    msg = ctl.poll()
    if msg is not None:
        cmd, payload = msg
        if cmd == "exit":
            try:
                ctl.send(("ok", on_exit(payload)))
            except ProcError:
                pass
            return False
        fn = handlers.get(cmd)
        if fn is None:
            ctl.send(("err", f"unknown command {cmd!r}"))
        else:
            try:
                ctl.send(("ok", fn(payload)))
            except Exception as exc:  # noqa: BLE001 — reported to the parent
                ctl.send(("err", f"{type(exc).__name__}: {exc}"))
    return not ctl.eof


class _ChildSide:
    """What both child mains share: this process's one side of the
    channel (the endpoint over its attached RBuf, the shm fabric on the
    doorbell, a supervised engine polling the fabric first), the
    optional fault injector and trace collector, and the child loop that
    waits on its sockets.  A child main adds its half of the stack (:mod:`repro.deploy`) and the
    commands only it answers."""

    def __init__(self, spec: _SideSpec, ctl_sock, db_sock, close_socks) -> None:
        _child_preamble(close_socks)
        self.spec = spec
        self.ctl = _CtlConn(ctl_sock)
        if spec.role == "host":
            side, mine, peer = "server", spec.server_config, spec.client_config
            my_base, peer_base = spec.s2c_base, spec.c2s_base
        else:
            side, mine, peer = "client", spec.client_config, spec.server_config
            my_base, peer_base = spec.c2s_base, spec.s2c_base
        rbuf = SharedRegion.attach(peer_base, peer.send_buffer_size,
                                   spec.rbuf_segment, f"{spec.name}.{side}.rbuf")
        self.endpoint, space = build_endpoint_side(
            side, spec.name, mine, peer, my_base, peer_base, rbuf_region=rbuf,
        )
        self.fabric = fabric = ShmFabric(auto_flush=False)
        fabric.bind(self.endpoint.qp, db_sock)

        self.engine = ProgressEngine(name=f"{spec.name}.{spec.role}-engine")
        self.supervisor = EngineSupervisor(self.engine, stall_ticks=_STALL_TICKS,
                                           max_faults=_MAX_FAULTS)
        self.engine.register(fabric, name="fabric")
        if side == "server":
            # The DPU child's client endpoint is polled by its front door
            # instead (``Ingress.progress`` calls the endpoint's own
            # ``progress``): once a pass, as in one process.
            self.engine.register(self.endpoint, name=side)
            self.channel = Channel(fabric, None, self.endpoint, None, space, self.engine)
        else:
            self.channel = Channel(fabric, self.endpoint, None, space, None, self.engine)
        #: the DPU child's xRPC front door, whose connections it waits on
        self.front = None

        self.injector = None
        if spec.fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(spec.fault_plan).attach(self.channel)
        self.collector = None
        if spec.trace:
            from repro.obs import TraceCollector, attach_endpoint

            self.collector = collector = TraceCollector()
            attach_endpoint(collector, self.endpoint, f"{spec.role}.rpc", stream=spec.name)
            fabric.trace = collector.recorder(f"{spec.role}.fabric")
            if self.injector is not None:
                self.injector.trace = collector.recorder(f"{spec.role}.faults")

    def wait_set(self) -> tuple:
        """``(fd, poll events)`` for every socket this child reads: the
        control socket, each live doorbell of the fabric and each
        connection of the front door (:attr:`front`, the DPU child's).
        Read per pass, not captured: a reconnect binds a new doorbell."""
        fds = [(self.ctl.sock.fileno(), _READ)]
        for fd, unsent in self.fabric.doorbells():
            fds.append((fd, _READ_WRITE if unsent else _READ))
        if self.front is not None:
            for sock in self.front.sockets():
                fds.append((sock.fileno(), _READ_WRITE if sock.unsent else _READ))
        return tuple(fds)

    def holds_work(self) -> bool:
        """Work no socket will announce: an op the fabric already read
        (one RNR holds at an inbox head), or a partial block the
        endpoint's ``flush_hold`` keeps open for a number of passes."""
        return self.fabric.holds_ops() or self.endpoint.holds_open_block

    def ticking(self) -> bool:
        """Whether a pass with no traffic still moves something: work in
        flight — the supervisor's stall clock and request deadlines count
        passes while it waits for the peer — or a completion the fault
        injector delays by passes."""
        injector = self.injector
        return bool(self.fabric.in_flight or self.endpoint.pending()
                    or (injector is not None and injector.delayed_held))

    def _loop(self, handlers, on_exit) -> None:
        """The child's event loop.  A pass is one ``poll`` over
        :meth:`wait_set`, one engine step, then the control command the
        poll found readable — so a command is answered after a step that
        read whatever the peer sent before it (a ``stats`` sees the
        completion whose doorbell beat it), and two commands always have
        a step between them.  The poll returns at once when the last
        pass did work, answered a command or :meth:`holds_work`;
        otherwise the child parks in it, for up to
        :data:`_PARK_MS` while :meth:`ticking`, else :data:`_IDLE_PARK_MS`
        — waiting for a peer never keeps it awake."""
        ctl, step = self.ctl, self.engine.step
        ctl_fd = ctl.sock.fileno()
        poller = watched = None
        timeout = 0
        while True:
            fds = self.wait_set()
            if fds != watched:
                poller, watched = select.poll(), fds
                for fd, events in fds:
                    poller.register(fd, events)
            ready = poller.poll(timeout)
            busy = step()
            if ready and any(fd == ctl_fd for fd, _ in ready):
                if not _answer_control(ctl, handlers, on_exit):
                    return
                busy = True  # the command may have queued work
            if busy or self.holds_work():
                timeout = 0
            else:
                timeout = _PARK_MS if self.ticking() else _IDLE_PARK_MS

    def stats(self) -> dict:
        fabric, injector = self.fabric, self.injector
        return {
            "fabric_ops": fabric.total_operations,
            "fabric_bytes": fabric.total_bytes,
            "faults_contained": self.supervisor.faults_contained,
            "injector_events": injector.faults_fired if injector else 0,
            "injector_fingerprint": injector.fingerprint() if injector else None,
        }

    def serve(self, handlers: dict, stats) -> None:
        """Handshake with the peer, report ready, then run the engine and
        answer the parent until it says exit (or is gone)."""
        collector = self.collector
        handlers = dict(handlers, stats=lambda _p: stats(),
                        trace=lambda _p: _export_and_clear(collector))

        def on_exit(_payload):
            return {"stats": stats(), "trace": _export_and_clear(collector)}

        self.fabric.handshake(self.endpoint.qp, timeout=_HANDSHAKE_TIMEOUT_S)
        try:
            self.ctl.send(("ready", {"pid": os.getpid()}))
            self._loop(handlers, on_exit)
        finally:
            self.channel.close()
            self.ctl.close()


def _host_child(spec: _SideSpec, schema, service, servicer,
                ctl_sock, db_sock, close_socks) -> None:
    """Host process: server endpoint + the host half + servicer."""
    side = _ChildSide(spec, ctl_sock, db_sock, close_socks)
    from repro.deploy import host_half

    server, fabric, supervisor = side.endpoint, side.fabric, side.supervisor
    host = host_half(side.channel, schema, service, servicer)
    if side.collector is not None:
        host.trace = side.collector.recorder("host.engine")

    def _reconnect(_payload):
        """Adopt a fresh doorbell (fd via SCM_RIGHTS) after the DPU
        process was replaced: same teardown the in-process recovery runs,
        then rebind + handshake against the new peer."""
        fds = side.ctl.take_fds()
        if not fds:
            raise ProcError("reconnect carried no doorbell fd")
        new_db = socketlib.socket(fileno=fds[0])
        for fd in fds[1:]:
            os.close(fd)
        server.qp.to_error()
        while server.recv_cq.poll(max_entries=1 << 10):
            pass
        if server.qp.send_cq is not server.recv_cq:
            while server.qp.send_cq.poll(max_entries=1 << 10):
                pass
        fabric.discard_in_flight()
        server.qp.reset_to_init()
        fabric.bind(server.qp, new_db)
        fabric.handshake(server.qp, timeout=_HANDSHAKE_TIMEOUT_S)
        server.reset_connection_state()
        # The dead peer's fault storm may have quarantined the endpoint;
        # re-admit it with a clean slate.
        supervisor.release(server)
        supervisor.reset_faults(server)
        supervisor.reset_faults(fabric)
        return None

    def _stats():
        return dict(
            side.stats(),
            host_deserialized=host.host_deserialized,
            rnr_retransmissions=fabric.rnr_retransmissions,
            quarantines=supervisor.quarantines,
        )

    side.serve({
        "send_bootstrap": lambda _p: host.send_bootstrap(),
        "reconnect": _reconnect,
    }, _stats)


def _dpu_child(spec: _SideSpec, schema, service,
               ctl_sock, db_sock, xrpc_sock, close_socks) -> None:
    """DPU process: client endpoint + the DPU half (engine + xRPC front
    end)."""
    side = _ChildSide(spec, ctl_sock, db_sock, close_socks)
    from repro.deploy import dpu_half
    from repro.offload.adt import AdtError
    from repro.xrpc.transport import StreamSocket

    front = dpu_half(side.channel, service)  # bootstrapped later, on command
    dpu = front.dpu
    front.adopt(StreamSocket(xrpc_sock, "dpu-front"))
    side.engine.register(front, name="front")
    side.front = front
    if side.collector is not None:
        front.trace = side.collector.recorder("dpu.front")
        dpu.trace = side.collector.recorder("dpu.engine")

    def _recv_bootstrap(_payload):
        """Poll for the host's bootstrap SEND, tolerating cross-process
        latency: the blob is in flight on the doorbell socket, not one
        engine step away as it is in-process."""
        deadline = time.monotonic() + _BOOTSTRAP_WINDOW_S
        while True:
            try:
                dpu.receive_bootstrap(_BOOTSTRAP_POLLS)
                return None
            except AdtError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def _stats():
        return dict(
            side.stats(),
            ready=dpu.ready,
            requests_forwarded=front.requests_forwarded,
            responses_returned=front.responses_returned,
            fallback_requests=front.fallback_requests,
            deserialized=dpu.stats.messages,
        )

    side.serve({
        "recv_bootstrap": _recv_bootstrap,
        "crash_engine": lambda _p: dpu.crash("injected"),
        "revive_engine": lambda _p: dpu.revive(),
    }, _stats)


# ---------------------------------------------------------------------------
# The parent-side supervisor
# ---------------------------------------------------------------------------


class ProcSupervisor:
    """Spawns, connects, supervises, and tears down the three-process
    deployment (client = this process, DPU child, host child).

    Typical use::

        sup = ProcSupervisor(schema, service, servicer).start()
        chan = sup.xrpc_channel()
        response = chan.call_sync("pkg.Svc/Method", request, ResponseCls)
        ...
        sup.stop()

    ``start()`` performs the whole startup handshake: shared segments,
    doorbell/xRPC/control socketpairs, fork, RDMA-level HELLO exchange,
    and the ADT bootstrap transfer.
    """

    def __init__(
        self,
        schema,
        service,
        servicer,
        client_config: ProtocolConfig = CLIENT_DEFAULTS,
        server_config: ProtocolConfig = SERVER_DEFAULTS,
        name: str = "procs",
        trace: bool = False,
        host_fault_plan=None,
    ) -> None:
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ProcError("multiprocess deployment requires the fork start method") from exc
        self.schema = schema
        self.service = service
        self.servicer = servicer
        # The supervisor *is* the shm deployment; normalize so configs
        # built for inproc runs work unchanged.
        self.client_config = dataclasses.replace(client_config, transport="shm")
        self.server_config = dataclasses.replace(server_config, transport="shm")
        check_config_pair(self.client_config, self.server_config)
        self.name = name
        self.trace = trace
        self.host_fault_plan = host_fault_plan

        planner = AddressPlanner()
        self._c2s_base = planner.take(self.client_config.send_buffer_size)
        self._s2c_base = planner.take(self.server_config.send_buffer_size)

        self._host = _Child("host")
        self._dpu = _Child("dpu")
        self._segments: list[SharedRegion] = []
        self._client_raw_sock = None
        self._client_socket = None
        self._cached_channel = None
        self.child_stats: dict[str, dict] = {}
        self.dpu_respawns = 0
        self.collector = None
        if trace:
            from repro.obs import TraceCollector

            self.collector = TraceCollector()

        #: the client-side engine: watches child liveness; xRPC channels
        #: built by :meth:`xrpc_channel` drive it while waiting.
        self.engine = ProgressEngine(name=f"{name}.client-engine")
        self.supervisor = EngineSupervisor(
            self.engine, stall_ticks=_STALL_TICKS, max_faults=_MAX_FAULTS,
        )
        self.engine.register(ProcessPollable(self._host), name="host-process")
        self.engine.register(ProcessPollable(self._dpu), name="dpu-process")

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ProcSupervisor":
        """Spawn and connect both children.  All or nothing: a caller
        whose ``start()`` raised holds nothing it would think to
        ``stop()`` (``with`` never reaches ``__exit__`` when
        ``__enter__`` raises), so whatever was spawned, mapped or opened
        by then is torn down here before the error propagates."""
        if self._host.proc is not None:
            raise ProcError("already started")
        round_socks: list = []
        try:
            self._spawn(round_socks)
            self._await_ready(self._host)
            self._await_ready(self._dpu)
            self.bootstrap()
        except BaseException:
            self.stop()
            _close_all(round_socks)  # those stop() was never told about
            raise
        return self

    def _spawn(self, round_socks: list) -> None:
        from repro.memory import segment_name

        for tag, base, config in (("c2s", self._c2s_base, self.client_config),
                                  ("s2c", self._s2c_base, self.server_config)):
            self._segments.append(SharedRegion(
                base, config.send_buffer_size, f"{self.name}.{tag}",
                segment=segment_name(f"{self.name}-{tag}"),
            ))

        for _ in range(4):
            round_socks.extend(socketlib.socketpair())
        ctl_h_p, ctl_h_c, ctl_d_p, ctl_d_c, db_h, db_d, xr_p, xr_d = round_socks

        host_keep = {ctl_h_c, db_h}
        self._host.proc = self._mp.Process(
            target=_host_child, name=f"{self.name}-host",
            args=(self._spec("host"), self.schema, self.service, self.servicer,
                  ctl_h_c, db_h, [s for s in round_socks if s not in host_keep]),
        )
        self._host.proc.start()
        self._dpu.proc = self._start_dpu(f"{self.name}-dpu", ctl_d_c, db_d, xr_d, round_socks)

        parent_keep = {ctl_h_p, ctl_d_p, xr_p}
        _close_all(s for s in round_socks if s not in parent_keep)
        self._host.ctl = _CtlConn(ctl_h_p)
        self._dpu.ctl = _CtlConn(ctl_d_p)
        self._client_raw_sock = xr_p

    def _start_dpu(self, name: str, ctl_sock, db_sock, xrpc_sock, socks):
        """Fork and start a DPU child on its control, doorbell and xRPC
        sockets; the child closes every other socket in ``socks``."""
        keep = {ctl_sock, db_sock, xrpc_sock}
        proc = self._mp.Process(
            target=_dpu_child, name=name,
            args=(self._spec("dpu"), self.schema, self.service,
                  ctl_sock, db_sock, xrpc_sock,
                  [s for s in socks if s not in keep]),
        )
        proc.start()
        return proc

    def _spec(self, role: str) -> _SideSpec:
        """The host child attaches the c2s segment and may carry a fault
        plan; the DPU child attaches s2c."""
        host = role == "host"
        return _SideSpec(
            role=role, name=self.name,
            client_config=self.client_config, server_config=self.server_config,
            c2s_base=self._c2s_base, s2c_base=self._s2c_base,
            rbuf_segment=self._segments[0 if host else 1].segment, trace=self.trace,
            fault_plan=self.host_fault_plan if host else None,
        )

    def _await_ready(self, child: _Child, timeout: float | None = None) -> None:
        timeout = timeout or (_HANDSHAKE_TIMEOUT_S + 20.0)
        kind, payload = child.ctl.wait(timeout)
        if kind != "ready":
            raise ProcError(f"{child.role}: expected ready, got {kind}: {payload}")

    def bootstrap(self) -> None:
        """Run the ADT bootstrap transfer: host SENDs the blob, the DPU
        child polls it in and builds its deserializer.  Also the
        re-offload step after :meth:`recover_dpu`."""
        self._host.ctl.request(("send_bootstrap", None))
        self._dpu.ctl.request(("recv_bootstrap", None),
                              timeout=_BOOTSTRAP_WINDOW_S + 20.0)

    # -- client plumbing ---------------------------------------------------------

    def drive(self) -> None:
        """One client-side pass while waiting on the children: check
        that they are alive, then yield the CPU to them."""
        self.engine.step()
        time.sleep(0.0001)

    def xrpc_channel(self):
        """The client's xRPC channel to the DPU front end (cached; a DPU
        respawn invalidates it and the next call returns a fresh one over
        the new socketpair — an honest client reconnect)."""
        if self._cached_channel is not None:
            return self._cached_channel
        from repro.xrpc.channel import XrpcChannel
        from repro.xrpc.transport import StreamSocket

        if self._client_raw_sock is None:
            raise ProcError("not started (or the DPU connection is being replaced)")
        self._client_socket = StreamSocket(self._client_raw_sock, f"{self.name}-client")
        channel = XrpcChannel(None, f"{self.name}:xrpc", socket=self._client_socket)
        channel.drive = self.drive
        if self.collector is not None:
            channel.trace = self.collector.recorder("client.xrpc")
        self._cached_channel = channel
        return channel

    def _disconnect_client(self) -> None:
        if self._client_socket is not None:
            self._client_socket.close()
            self._client_socket = None
        elif self._client_raw_sock is not None:
            self._client_raw_sock.close()
        self._client_raw_sock = None
        self._cached_channel = None

    # -- fault handling ----------------------------------------------------------

    def kill_dpu(self) -> None:
        """SIGKILL the DPU process — the failover acceptance scenario.
        The death surfaces through :class:`ProcessPollable` on the next
        engine step; :meth:`recover_dpu` brings a fresh process up."""
        if self._dpu.proc is None:
            raise ProcError("no DPU process")
        self._dpu.expected_exit = False
        self._dpu.proc.kill()
        self._dpu.proc.join(5)

    def recover_dpu(self, bootstrap: bool = False) -> None:
        """Replace the DPU process: respawn, hand the host a fresh
        doorbell (fd over the control socket), re-handshake.  With
        ``bootstrap=False`` the new process starts *degraded* — the front
        end serves via the host-parse failover until :meth:`bootstrap`
        re-arms offloading — which keeps the recovery window observable
        and the re-offload moment explicit."""
        old = self._dpu
        if old.proc is not None and old.proc.is_alive():
            old.expected_exit = True
            old.proc.terminate()
            old.proc.join(5)
        if old.ctl is not None:
            old.ctl.close()
        self._disconnect_client()

        ctl_d_p, ctl_d_c = socketlib.socketpair()
        db_h, db_d = socketlib.socketpair()
        xr_p, xr_d = socketlib.socketpair()
        round_socks = [ctl_d_p, ctl_d_c, db_h, db_d, xr_p, xr_d]
        # The host child predates these sockets, so it holds no copies;
        # only the parent's pre-existing fds leak into the new child.
        extra_close = [s for s in (self._host.ctl.sock,) if s is not None]
        proc = self._start_dpu(f"{self.name}-dpu-{self.dpu_respawns + 1}",
                               ctl_d_c, db_d, xr_d, round_socks + extra_close)
        _close_all([ctl_d_c, db_d, xr_d])

        old.proc = proc
        old.ctl = _CtlConn(ctl_d_p)
        old.expected_exit = False
        old.death_reported = False
        self._client_raw_sock = xr_p
        self.dpu_respawns += 1

        # The new child blocks in its doorbell handshake until the host
        # rebinds; order matters: reconnect first, then await ready.
        try:
            self._host.ctl.request(("reconnect", None), timeout=_RECOVER_TIMEOUT_S,
                                   fds=[db_h.fileno()])
        finally:
            db_h.close()
        self._await_ready(old, _RECOVER_TIMEOUT_S)
        self.supervisor.reset_faults(self._pollable("dpu-process"))
        if bootstrap:
            self.bootstrap()

    def _pollable(self, name: str):
        for reg in self.engine.registrations:
            if reg.name == name:
                return reg.pollable
        for reg in self.supervisor.quarantined:
            if reg.name == name:
                self.supervisor.release(reg.pollable)
                return reg.pollable
        raise ProcError(f"no registered pollable {name!r}")

    # -- observability -----------------------------------------------------------

    def collect_traces(self) -> int:
        """Pull both children's trace rings into :attr:`collector`
        (timestamps re-based onto the parent's epoch via the shared
        monotonic clock).  Children clear after export, so repeated calls
        are incremental.  Returns events imported."""
        if self.collector is None:
            raise ProcError("tracing is disabled (construct with trace=True)")
        from repro.obs import import_events

        imported = 0
        for child in (self._host, self._dpu):
            if child.ctl is None or child.ctl.eof:
                continue
            snapshot = child.ctl.request(("trace", None))
            if snapshot:
                imported += import_events(self.collector, snapshot)
        return imported

    def stats(self) -> dict:
        """Live counters from both children plus the parent's view."""
        out = {
            "dpu_respawns": self.dpu_respawns,
            "parent_faults_contained": self.supervisor.faults_contained,
        }
        for child in (self._host, self._dpu):
            if child.ctl is None or child.ctl.eof:
                out[child.role] = self.child_stats.get(child.role)
                continue
            out[child.role] = child.ctl.request(("stats", None))
        return out

    def crash_dpu_engine(self) -> None:
        """Soft-crash the DPU *engine* (process stays up) — the in-process
        fault campaign's dpu_crash, across the boundary."""
        self._dpu.ctl.request(("crash_engine", None))

    def revive_dpu_engine(self) -> None:
        self._dpu.ctl.request(("revive_engine", None))

    # -- teardown ----------------------------------------------------------------

    def stop(self) -> dict:
        """Orderly teardown: ask each child to exit (collecting its final
        stats and trace snapshot), escalate to terminate/kill on a
        deadline, unlink the shared segments.  Idempotent."""
        results: dict[str, dict] = {}
        for child in (self._dpu, self._host):
            if child.proc is None:
                continue
            child.expected_exit = True
            if child.proc.is_alive() and child.ctl is not None and not child.ctl.eof:
                try:
                    payload = child.ctl.request(("exit", None), timeout=_STOP_TIMEOUT_S)
                    if payload:
                        results[child.role] = payload
                except ProcError:
                    pass
            child.proc.join(_STOP_TIMEOUT_S)
            if child.proc.is_alive():
                child.proc.terminate()
                child.proc.join(2)
            if child.proc.is_alive():  # pragma: no cover - last resort
                child.proc.kill()
                child.proc.join(2)
            if child.ctl is not None:
                child.ctl.close()
                child.ctl = None
            child.proc = None
        for role, payload in results.items():
            self.child_stats[role] = payload.get("stats")
            snapshot = payload.get("trace")
            if snapshot and self.collector is not None:
                from repro.obs import import_events

                import_events(self.collector, snapshot)
        self._disconnect_client()
        for segment in self._segments:
            segment.cleanup()
        self._segments = []
        return results

    def __enter__(self) -> "ProcSupervisor":
        if self._host.proc is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
