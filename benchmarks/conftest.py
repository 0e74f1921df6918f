"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure from the paper:
it runs the relevant measurement (real code timed by pytest-benchmark
and/or the calibrated datapath simulator), prints the regenerated
rows/series, and appends them to ``benchmarks/results/<id>.txt`` so the
full reproduction record survives the run.

Run everything with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sim import DatapathSimulator, Scenario, SimOptions, WorkloadProfile
from repro.workloads import SMALL, X512_INTS, X8000_CHARS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """report(experiment_id, text): print + persist one experiment's
    regenerated output."""
    RESULTS_DIR.mkdir(exist_ok=True)
    written: set[str] = set()

    def _report(experiment_id: str, text: str) -> None:
        banner = f"\n==== {experiment_id} ====\n{text}\n"
        print(banner)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        mode = "a" if experiment_id in written else "w"
        with path.open(mode) as fh:
            fh.write(banner)
        written.add(experiment_id)

    return _report


@pytest.fixture(scope="session")
def profiles():
    """Measured workload profiles (census from the real deserializer)."""
    return {
        spec.name: WorkloadProfile.measure(spec)
        for spec in (SMALL, X512_INTS, X8000_CHARS)
    }


@pytest.fixture(scope="session")
def fig8_results(profiles):
    """All six Fig. 8 cells, simulated once and shared by the three
    figure benchmarks."""
    out = {}
    for name, profile in profiles.items():
        for scenario in Scenario:
            out[name, scenario] = DatapathSimulator(profile, scenario).run()
    return out
