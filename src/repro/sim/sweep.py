"""Parameter sweeps over the datapath simulator.

Utilities behind the ablation benches: vary one knob of the Table-I
configuration (threads, credits, concurrency, block size, link
bandwidth) and collect a result series.  Each sweep point rebuilds the
paper's environment immutably — frozen dataclasses keep configurations
hashable/printable, so a sweep is fully described by (knob, values).
Every point runs the offloaded scenario with the default
:class:`SimOptions` otherwise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from .datapath import DatapathResult, DatapathSimulator, Scenario, SimOptions, WorkloadProfile
from .environment import PAPER_ENVIRONMENT, Environment

__all__ = ["sweep_environment", "sweep_dpu_threads", "sweep_credits", "sweep_block_size"]


def sweep_environment(
    profile: WorkloadProfile,
    scenario: Scenario,
    environments: Iterable[tuple[object, Environment]],
) -> dict:
    """Run one cell per (key, environment); returns {key: result}."""
    out: dict = {}
    for key, env in environments:
        out[key] = DatapathSimulator(profile, scenario, SimOptions(environment=env)).run()
    return out


def _both_sides(field: str, values: Iterable[int]):
    """``(n, environment)`` with ``field`` set to ``n`` on both ends."""
    env = PAPER_ENVIRONMENT
    for n in values:
        yield n, replace(
            env,
            client_config=replace(env.client_config, **{field: n}),
            server_config=replace(env.server_config, **{field: n}),
        )


def sweep_dpu_threads(
    profile: WorkloadProfile, thread_counts: Iterable[int]
) -> dict[int, DatapathResult]:
    """§VI-C: 'maximum performance is reached on sixteen DPU threads'."""
    env = PAPER_ENVIRONMENT
    return sweep_environment(
        profile,
        Scenario.DPU_OFFLOAD,
        (
            (n, replace(env, client_config=replace(env.client_config, threads=n)))
            for n in thread_counts
        ),
    )


def sweep_credits(
    profile: WorkloadProfile, credit_counts: Iterable[int]
) -> dict[int, DatapathResult]:
    """§VI-A: credits must cover the blocks the concurrency window
    occupies; starving the pipeline of credits caps throughput."""
    return sweep_environment(profile, Scenario.DPU_OFFLOAD, _both_sides("credits", credit_counts))


def sweep_block_size(
    profile: WorkloadProfile, block_sizes: Iterable[int]
) -> dict[int, DatapathResult]:
    """§VI-A: the 8 KiB block-size optimum."""
    return sweep_environment(profile, Scenario.DPU_OFFLOAD, _both_sides("block_size", block_sizes))
