"""Channel factory: wires a client/server endpoint pair over the fabric.

Builds the full resource stack for one RPC-over-RDMA connection —
address-space carving with mirrored buffers (Figure 2), protection
domains, registered memory, queue pairs, completion queues — and returns
the connected :class:`~repro.core.endpoint.ClientEndpoint` /
:class:`~repro.core.endpoint.ServerEndpoint` pair.

The mirroring contract it establishes:

* the client's SBuf and the server's RBuf occupy the *same* virtual
  address range (each with its own backing store);
* likewise the server's SBuf and the client's RBuf;
* therefore any pointer the client writes inside a block payload is valid
  verbatim on the server (§III-B) — the property the offloaded
  deserializer depends on.

:class:`RpcServer` bundles several server endpoints behind one progress
loop, the "a single poller can share multiple connections on the server
side" arrangement of §III-C.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory import AddressSpace, MemoryRegion, SharedRegion
from repro.rdma import (
    TRANSPORTS,
    Access,
    CompletionChannel,
    CompletionQueue,
    Fabric,
    FabricTransport,
    ProtectionDomain,
    QueuePair,
)
from repro.runtime import ProgressEngine

from .config import CLIENT_DEFAULTS, SERVER_DEFAULTS, ProtocolConfig
from .endpoint import ClientEndpoint, ServerEndpoint

__all__ = [
    "AddressPlanner",
    "Channel",
    "RpcServer",
    "create_channel",
    "build_endpoint_side",
    "check_config_pair",
]


class AddressPlanner:
    """Hands out disjoint virtual address ranges for buffer pairs.

    One planner per simulated deployment keeps every mirrored range
    unique, so a host that serves many connections maps them all without
    overlap — as the real host does with distinct pinned allocations.
    """

    def __init__(self, start: int = 0x1000_0000, alignment: int = 1 << 20) -> None:
        self._cursor = start
        self._alignment = alignment

    def take(self, size: int) -> int:
        base = self._cursor
        self._cursor += -(-size // self._alignment) * self._alignment
        return base


@dataclass
class Channel:
    """Everything belonging to one connected client/server pair.  Both
    endpoints are registered with :attr:`engine`, the channel's progress
    engine; one :meth:`progress` call is one engine pass.

    In a multiprocess deployment (``transport="shm"`` under
    :mod:`repro.runtime.procs`) a channel is *one-sided*: the process
    hosting the DPU engine holds only :attr:`client`, the host process
    only :attr:`server` — the missing side is ``None`` because it lives
    in another address space."""

    fabric: FabricTransport
    client: ClientEndpoint | None
    server: ServerEndpoint | None
    client_space: AddressSpace | None
    server_space: AddressSpace | None
    engine: ProgressEngine | None = None

    def progress(self, iterations: int = 1) -> None:
        """Convenience: advance both sides via the engine."""
        for _ in range(iterations):
            self.engine.step()

    def close(self) -> None:
        """Release transport resources: doorbell sockets and shared-memory
        mappings (segments this process created are unlinked).  A no-op
        for the in-process backend; idempotent everywhere."""
        close = getattr(self.fabric, "close", None)
        if callable(close):
            close()
        for space in (self.client_space, self.server_space):
            if space is None:
                continue
            for region in space.regions():
                if isinstance(region, SharedRegion):
                    region.cleanup()


def check_config_pair(client_config: ProtocolConfig, server_config: ProtocolConfig) -> None:
    """Reject a client/server config pair the protocol cannot run on:
    what the two sides must agree on is checked here, once, for every
    way a connection is built."""
    if client_config.block_alignment != server_config.block_alignment:
        raise ValueError("both sides must agree on block alignment")
    if client_config.concurrency != server_config.concurrency:
        # Each side sizes its mirrored §IV-D ID pool from its own value;
        # unequal pools hand out different IDs as soon as one wraps.
        raise ValueError(
            f"both sides must agree on concurrency "
            f"(client={client_config.concurrency}, server={server_config.concurrency})"
        )
    if client_config.recv_buffer_size < server_config.send_buffer_size:
        raise ValueError("client RBuf must cover the server SBuf it mirrors")
    if server_config.recv_buffer_size < client_config.send_buffer_size:
        raise ValueError("server RBuf must cover the client SBuf it mirrors")
    if client_config.transport != server_config.transport:
        raise ValueError(
            f"both sides must agree on the transport "
            f"(client={client_config.transport!r}, server={server_config.transport!r})"
        )


def build_endpoint_side(
    role: str,
    name: str,
    config: ProtocolConfig,
    peer_config: ProtocolConfig,
    sbuf_base: int,
    rbuf_base: int,
    space: AddressSpace | None = None,
    rbuf_region: MemoryRegion | None = None,
):
    """Build one side's full resource stack — regions, PD, MRs, CQ, QP,
    endpoint — without connecting it to anything.

    This is the half of :func:`create_channel` a *one-sided* deployment
    needs: a process that hosts only the DPU engine (``role="client"``)
    or only the host engine (``role="server"``) builds its side against
    the agreed virtual addresses, passing the shared-memory RBuf it
    attached as ``rbuf_region`` (the SBuf stays process-private — only
    the receive side of each mirrored pair must be physically shared).

    Returns ``(endpoint, space)``; the caller connects the QP through its
    fabric (``fabric.connect`` in-process, ``bind`` + ``handshake``
    across processes).
    """
    if role not in ("client", "server"):
        raise ValueError(f"unknown endpoint role {role!r}")
    side_name = f"{name}.{role}"
    space = space or AddressSpace(side_name)
    sbuf = space.map(
        MemoryRegion(sbuf_base, config.send_buffer_size, f"{side_name}.sbuf")
    )
    if rbuf_region is None:
        rbuf_region = MemoryRegion(
            rbuf_base, peer_config.send_buffer_size, f"{side_name}.rbuf"
        )
    rbuf = space.map(rbuf_region)

    pd = ProtectionDomain(space, f"{side_name}.pd")
    pd.register_memory(sbuf, Access.LOCAL_READ | Access.LOCAL_WRITE)
    pd.register_memory(rbuf, Access.LOCAL_READ | Access.LOCAL_WRITE | Access.REMOTE_WRITE)

    # CQ capacity must exceed everything that can complete at once:
    # receives bounded by the peer's credits, sends by ours.
    cq = CompletionQueue(
        capacity=2 * (config.credits + peer_config.credits) + 64,
        name=f"{side_name}.cq",
        channel=CompletionChannel(),
    )
    qp = QueuePair(
        pd, cq, cq, max_recv_wr=peer_config.credits + 16, name=f"{side_name}.qp"
    )
    endpoint_cls = ClientEndpoint if role == "client" else ServerEndpoint
    endpoint = endpoint_cls(
        side_name, space, qp, cq, sbuf, rbuf, config,
        remote_block_alignment=peer_config.block_alignment,
        recv_slots=peer_config.credits,
    )
    return endpoint, space


def create_channel(
    client_config: ProtocolConfig = CLIENT_DEFAULTS,
    server_config: ProtocolConfig = SERVER_DEFAULTS,
    fabric: FabricTransport | None = None,
    planner: AddressPlanner | None = None,
    client_space: AddressSpace | None = None,
    server_space: AddressSpace | None = None,
    name: str = "chan",
    transport: str | None = None,
) -> Channel:
    """Create and connect one RPC-over-RDMA channel.

    Pass existing spaces to add a connection to an existing side (the
    multi-connection server case); a fresh space is created otherwise.

    The fabric backend follows ``client_config.transport`` (both sides
    must agree; the ``transport`` argument overrides both).  With
    ``"shm"`` the receive buffers are real shared-memory segments and the
    doorbells run over a socketpair — the same mechanics as the
    multiprocess deployment, inside one process.
    """
    check_config_pair(client_config, server_config)
    transport = transport or client_config.transport
    if fabric is None:
        factory = TRANSPORTS.get(transport)
        if factory is None:
            raise ValueError(
                f"unknown transport {transport!r} "
                f"(expected one of {sorted(TRANSPORTS)})"
            )
        fabric = factory()
    shared_rbufs = getattr(fabric, "transport", "inproc") == "shm"

    planner = planner or AddressPlanner()
    c2s_base = planner.take(client_config.send_buffer_size)
    s2c_base = planner.take(server_config.send_buffer_size)

    region_cls = SharedRegion if shared_rbufs else MemoryRegion
    client_rbuf = region_cls(s2c_base, server_config.send_buffer_size, f"{name}.client.rbuf")
    server_rbuf = region_cls(c2s_base, client_config.send_buffer_size, f"{name}.server.rbuf")

    client, client_space = build_endpoint_side(
        "client", name, client_config, server_config, c2s_base, s2c_base,
        space=client_space, rbuf_region=client_rbuf,
    )
    server, server_space = build_endpoint_side(
        "server", name, server_config, client_config, s2c_base, c2s_base,
        space=server_space, rbuf_region=server_rbuf,
    )
    fabric.connect(client.qp, server.qp)

    engine = ProgressEngine(name=f"{name}.engine")
    engine.register(client, name=f"{name}.client")
    engine.register(server, name=f"{name}.server")
    return Channel(fabric, client, server, client_space, server_space, engine)


class RpcServer:
    """A host-side poller serving several connections (§III-C: many
    connections, one poller, shared handler table).  The poller is a
    :class:`~repro.runtime.engine.ProgressEngine`; each attached
    endpoint takes a seat of its own, ``<endpoint name>#<n>`` for the
    n-th connection, so two connections never share a metrics row."""

    def __init__(self, engine: ProgressEngine | None = None) -> None:
        self.engine = engine or ProgressEngine(name="rpc-server")
        self._endpoints: list[ServerEndpoint] = []
        self._handlers: list[tuple[int, object]] = []

    def attach(self, endpoint: ServerEndpoint) -> None:
        self.engine.register(endpoint, name=f"{endpoint.name}#{len(self._endpoints)}")
        for method_id, handler in self._handlers:
            endpoint.register(method_id, handler)
        self._endpoints.append(endpoint)

    def register(self, method_id: int, handler) -> None:
        """Register on all current and future connections."""
        self._handlers.append((method_id, handler))
        for ep in self._endpoints:
            ep.register(method_id, handler)

    def progress(self) -> int:
        return self.engine.step()

    @property
    def endpoints(self) -> list[ServerEndpoint]:
        return list(self._endpoints)
