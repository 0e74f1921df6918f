"""Tests for the campaign runner: invariants, determinism, and the
aggregate report (docs/FAULTS.md)."""

from __future__ import annotations

import pytest

from repro.faults import (
    CampaignReport,
    ScenarioResult,
    child_seed,
    run_campaign,
    run_core_scenario,
    run_offloaded_scenario,
    run_overload_scenario,
    run_scenario,
)


class TestChildSeed:
    def test_pinned_values(self):
        """The CI fault matrix pins these — changing the derivation
        invalidates every recorded campaign seed."""
        assert child_seed(0, 0) == 0x9E37
        assert child_seed(0, 1) == (2_654_435_761 + 0x9E37) % (1 << 32)
        assert child_seed(2024, 3) == (2024 * 1_000_003 + 3 * 2_654_435_761 + 0x9E37) % (1 << 32)

    def test_neighbours_decorrelated(self):
        seeds = [child_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64


class TestCoreScenario:
    def test_scenario_holds_invariants(self):
        result = run_core_scenario(child_seed(0, 0))
        assert result.ok, result.render()
        assert result.deployment == "core"
        assert not result.hung
        assert result.completed + result.failed == result.requests

    def test_same_seed_same_fingerprint(self):
        seed = child_seed(17, 4)
        a, b = run_core_scenario(seed), run_core_scenario(seed)
        assert a.fingerprint == b.fingerprint
        assert a == b

    def test_different_seeds_diverge(self):
        a = run_core_scenario(child_seed(0, 0))
        b = run_core_scenario(child_seed(0, 2))
        assert a.fingerprint != b.fingerprint


class TestOffloadedScenario:
    def test_degradation_keeps_answers_correct(self):
        result = run_offloaded_scenario(child_seed(0, 1))
        assert result.ok, result.render()
        assert result.deployment == "offloaded"
        assert result.faults_fired >= 1  # the scripted DPU crash
        assert result.mismatches == 0

    def test_reproducible(self):
        seed = child_seed(5, 9)
        assert (
            run_offloaded_scenario(seed).fingerprint
            == run_offloaded_scenario(seed).fingerprint
        )


class TestOverloadScenario:
    def test_shed_degrade_trip_recover_sequence(self, monkeypatch):
        """The overload promises under a seeded burst + host slowdown,
        with admission control and the breaker armed: bulk is shed,
        nothing is silently lost, and the latency lane is shed no harder
        than bulk."""
        from repro.runtime.overload import LANE_BULK, LANE_LATENCY
        from repro.workloads import openloop

        runs = []
        real = openloop.run_open_loop

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(openloop, "run_open_loop", spy)
        result = run_overload_scenario(child_seed(0, 0))
        assert result.ok, result.render()
        assert result.deployment == "overload"
        assert not result.hung  # every offered request was answered
        assert result.error is None
        (run,) = runs
        assert run.unanswered == 0
        assert run.shed[LANE_BULK] > 0
        rate = {
            lane: run.shed[lane] / (run.shed[lane] + run.completed[lane])
            for lane in (LANE_LATENCY, LANE_BULK)
        }
        assert rate[LANE_LATENCY] <= rate[LANE_BULK]

    def test_reproducible(self):
        seed = child_seed(7, 3)
        assert (
            run_overload_scenario(seed).fingerprint
            == run_overload_scenario(seed).fingerprint
        )

    def test_different_seeds_diverge(self):
        a = run_overload_scenario(child_seed(0, 0))
        b = run_overload_scenario(child_seed(0, 1))
        assert a.fingerprint != b.fingerprint

    def test_campaign_deployment_selection(self):
        report = run_campaign(base_seed=0, scenarios=2, deployments=("overload",))
        assert all(r.deployment == "overload" for r in report.results)
        assert report.ok, report.render()


class TestRunScenario:
    def test_dispatch(self):
        assert run_scenario(child_seed(0, 0), "core").deployment == "core"

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError, match="unknown deployment"):
            run_scenario(1, "quantum")


class TestCampaign:
    def test_small_campaign_passes(self):
        report = run_campaign(base_seed=0, scenarios=6, verify_every=3)
        assert report.scenarios == 6
        assert report.ok, report.render()
        assert report.hangs == 0
        assert report.violations == []
        assert report.determinism_checked == 2
        assert report.determinism_failures == 0
        assert report.faults_fired >= 1
        assert report.render().endswith("PASS")

    def test_alternates_deployments(self):
        report = run_campaign(base_seed=0, scenarios=4)
        assert [r.deployment for r in report.results] == [
            "core", "offloaded", "core", "offloaded",
        ]

    def test_on_result_callback_sees_every_scenario(self):
        seen = []
        run_campaign(base_seed=3, scenarios=3, on_result=seen.append)
        assert len(seen) == 3
        assert all(isinstance(r, ScenarioResult) for r in seen)

    def test_single_deployment_selection(self):
        report = run_campaign(base_seed=1, scenarios=3, deployments=("offloaded",))
        assert all(r.deployment == "offloaded" for r in report.results)

    def test_report_flags_violations(self):
        bad = ScenarioResult(
            seed=1, deployment="core", requests=4, completed=3, failed=0,
            mismatches=1, duplicate_fires=0, resets=0, faults_fired=1,
            stalls=0, contained=0, ticks=10, hung=False, error=None,
            fingerprint="x",
        )
        report = CampaignReport(base_seed=0, results=[bad])
        assert not bad.ok
        assert not report.ok
        assert report.render().endswith("FAIL")
        assert "VIOLATION" in bad.render()
