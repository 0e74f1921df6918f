"""The three deployments the workloads run on, built from public parts.

Every builder returns a :class:`Deployment`: the client-side socket the
driver writes request frames to, a ``drive()`` that advances (or waits
for) the server side, and ``close()``.  With a ``recorder`` the builder
also makes the few hooks that cannot be installed later: the bracketed
servicer, and timing of the host method handlers as they are registered.
"""

from __future__ import annotations

import multiprocessing
import os
import select
from dataclasses import dataclass, field

from .service import make_servicer

__all__ = ["Deployment", "build", "PROCS_NAME", "leaked_segments"]

#: ProcSupervisor name; its shm segments are ``repro-<name>-...-<pid>-...``
PROCS_NAME = "e2ebench"


@dataclass
class Deployment:
    kind: str
    socket: object
    drive: object
    close: object
    #: the objects a traced pass wraps and the counters are read from
    parts: dict = field(default_factory=dict)
    #: role -> pid of every process of the deployment
    pids: dict = field(default_factory=dict)

    def assert_untraced(self) -> None:
        """The deployment's own tracing (repro.obs) must stay detached:
        the end-to-end numbers are untraced numbers."""
        for name, part in self.parts.items():
            # components hold a recorder or None; ProcSupervisor a bool
            if getattr(part, "trace", None) not in (None, False):
                raise AssertionError(f"{name}.trace is attached")


def _build_offloaded(schema, service, recorder) -> Deployment:
    from repro.core import create_channel
    from repro.offload.engine import DpuEngine, HostEngine
    from repro.xrpc import Network, OffloadedXrpcServer, register_offloaded_servicer

    rdma = create_channel(transport="inproc")
    host = HostEngine(rdma, schema)
    servicer = make_servicer(schema, recorder, "offload.materialize.view_read")
    if recorder is not None:
        # The HostEngine builds one handler closure per method and hands
        # it to ServerEndpoint.register; time it on the way in.
        recorder.patch(rdma.server, "register", lambda register: (
            lambda method_id, handler: register(
                method_id,
                recorder.timed("offload.engine.host_dispatch", handler, gated=True))))
    try:
        register_offloaded_servicer(host, service, servicer)
    finally:
        if recorder is not None:
            recorder.restore()
    dpu = DpuEngine(rdma)
    host.send_bootstrap()
    dpu.receive_bootstrap()
    network = Network()
    front = OffloadedXrpcServer(network, "dpu:50051", dpu, service)
    socket = network.connect("dpu:50051", "e2e-client")

    def drive() -> None:
        front.progress()
        host.progress()

    parts = {
        "front": front, "dpu": dpu, "host": host, "deserializer": dpu.deserializer,
        "client": rdma.client, "server": rdma.server, "fabric": rdma.fabric,
        "client_space": rdma.client_space, "server_space": rdma.server_space,
    }
    return Deployment("offloaded", socket, drive, rdma.close, parts,
                      {"client": os.getpid()})


def _build_baseline(schema, service, recorder) -> Deployment:
    from repro.xrpc import Network, XrpcServer

    network = Network()
    server = XrpcServer(network, "host:50051", schema.factory)
    server.add_service(service, make_servicer(schema, recorder, "proto.message.read"))
    socket = network.connect("host:50051", "e2e-client")

    def drive() -> None:
        server.progress()  # looked up per pass, so a traced pass can wrap it

    return Deployment("baseline", socket, drive, lambda: None,
                      {"xrpc_server": server}, {"client": os.getpid()})


def _build_procs(schema, service, recorder) -> Deployment:
    from repro.runtime.procs import ProcSupervisor

    sup = ProcSupervisor(schema, service, make_servicer(schema), name=PROCS_NAME)
    try:
        sup.start()
        socket = sup.xrpc_channel().socket
    except BaseException:
        sup.stop()
        raise
    fd = socket.fileno()
    check_children = sup.engine.step

    def drive() -> None:
        # A client that waits for its replies instead of spinning: three
        # busy processes on two cores would measure the scheduler.  The
        # liveness check rides on the idle timeouts.
        if not select.select([fd], [], [], 0.005)[0]:
            check_children()

    pids = {"client": os.getpid()}
    for child in multiprocessing.active_children():
        pids[child.name.removeprefix(f"{PROCS_NAME}-")] = child.pid
    _place(pids)
    return Deployment("procs", socket, drive, sup.stop, {"supervisor": sup}, pids)


def _place(pids: dict) -> None:
    """Give the host its own CPU, as in the paper, and let the DPU child
    share the other with the load generator.  Left to the scheduler,
    which pair of the three shares a core changes every few seconds and
    the rate with it (6 000 to 10 000 per second between and within
    runs); placed, ten runs agree within a few percent.  With a single
    CPU there is nothing to place."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(pids["host"], {cpus[1]})
    os.sched_setaffinity(pids["dpu"], {cpus[0]})
    os.sched_setaffinity(pids["client"], {cpus[0]})


_BUILDERS = {
    "offloaded": _build_offloaded,
    "baseline": _build_baseline,
    "procs": _build_procs,
}


def build(kind: str, schema, service, recorder=None) -> Deployment:
    return _BUILDERS[kind](schema, service, recorder)


def leaked_segments(pid: int) -> list[str]:
    """``/dev/shm`` segments a benchmark process ``pid`` created and
    left behind (there must be none)."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return [n for n in names
            if n.startswith(f"repro-{PROCS_NAME}-") and f"-{pid}-" in n]
