"""Table I: environment and configuration parameters.

Machine-readable description of the paper's testbed plus a renderer that
regenerates the table.  The datapath simulator takes its core counts,
cache sizes and protocol parameters from here so every experiment states
its configuration the way the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS, ProtocolConfig

__all__ = ["MachineSpec", "Environment", "PAPER_ENVIRONMENT", "render_table1"]


@dataclass(frozen=True)
class MachineSpec:
    """One side of the deployment."""

    role: str  # "Client" (DPU) / "Server" (host)
    hardware: str
    cpu: str
    cores: int
    ram_gib: float
    l1d: str
    l1i: str
    l2: str
    l3: str
    l3_bytes: int


@dataclass(frozen=True)
class Environment:
    client: MachineSpec
    server: MachineSpec
    compiler: str = "gcc -O3 -flto -march=native"
    os: str = "Ubuntu"
    system_allocator: str = "TCMalloc 4.2"
    client_config: ProtocolConfig = CLIENT_DEFAULTS
    server_config: ProtocolConfig = SERVER_DEFAULTS
    #: effective host<->DPU PCIe bandwidth; the paper's chars workload
    #: saturates around 180 Gbps, so the achievable ceiling sits just
    #: above it.
    pcie_gbps: float = 200.0


PAPER_ENVIRONMENT = Environment(
    client=MachineSpec(
        role="Client",
        hardware="BlueField-3",
        cpu="Cortex-A78AE",
        cores=16,
        ram_gib=30,
        l1d="1 MiB",
        l1i="1 MiB",
        l2="8 MiB",
        l3="16 MiB",
        l3_bytes=16 * 1024 * 1024,
    ),
    server=MachineSpec(
        role="Server",
        hardware="PowerEdge R760",
        cpu="x2 Intel Xeon Gold 6430",
        cores=64,
        ram_gib=251,
        l1d="4 MiB",
        l1i="2 MiB",
        l2="128 MiB",
        l3="120 MiB",
        l3_bytes=120 * 1024 * 1024,
    ),
)


def render_table1() -> str:
    """Regenerate Table I as aligned text."""
    env = PAPER_ENVIRONMENT
    c, s = env.client, env.server
    kib = 1024
    mib = 1024 * kib
    rows = [
        ("", "Client", "Server"),
        ("Hardware", c.hardware, s.hardware),
        ("CPU", c.cpu, s.cpu),
        ("Cores", f"x{c.cores}", f"x{s.cores}"),
        ("RAM", f"{c.ram_gib:g} GiB", f"{s.ram_gib:g} GiB"),
        ("L1d", c.l1d, s.l1d),
        ("L1i", c.l1i, s.l1i),
        ("L2", c.l2, s.l2),
        ("L3", c.l3, s.l3),
        ("Compiler", env.compiler, env.compiler),
        ("OS", env.os, env.os),
        ("System Allocator", env.system_allocator, env.system_allocator),
        ("Threads", str(env.client_config.threads), str(env.server_config.threads)),
        ("Credits", str(env.client_config.credits), str(env.server_config.credits)),
        (
            "Block Size",
            f"{env.client_config.block_size // kib} KiB",
            f"{env.server_config.block_size // kib} KiB",
        ),
        ("Concurrency", str(env.client_config.concurrency), "n/a"),
        (
            "Buffer Sizes",
            f"{env.client_config.send_buffer_size // mib} MiB",
            f"{env.server_config.send_buffer_size // mib} MiB",
        ),
    ]
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    return "\n".join(f"{r[0]:<{w0}}  {r[1]:<{w1}}  {r[2]}" for r in rows)
