"""The closed loop end to end: run_autotuned under ManualClock — the
tuner must climb out of a deliberately bad config, deterministically."""

from __future__ import annotations

import pytest

from repro.obs.trace import Stage
from repro.runtime import LANE_LATENCY
from repro.workloads.openloop import OpenLoopConfig, TuneConfig, run_autotuned

#: the deliberately bad starting config the CLI's --bad-start mirrors
BAD_START = (
    ("flush_ticks", 16), ("forward_budget", 1),
    ("host_passes", 1), ("credits", 2),
)


def short_config(**kw):
    kw.setdefault("seed", 2024)
    kw.setdefault("ticks", 700)
    kw.setdefault("tick_us", 100)
    kw.setdefault("offered_per_tick", 1.6)
    kw.setdefault("capacity_per_tick", 2)
    kw.setdefault("bulk_fraction", 0.7)
    return OpenLoopConfig(**kw)


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def tuned(self):
        return run_autotuned(
            short_config(),
            TuneConfig(window_ticks=50, initial=BAD_START),
        )

    def test_no_lost_requests(self, tuned):
        assert tuned.result.unanswered == 0
        assert tuned.result.errors == 0

    def test_climbs_out_of_bad_config(self, tuned):
        assert tuned.initial_config == dict(BAD_START)
        assert tuned.final_config != tuned.initial_config
        # the two knobs that throttle the bad config must both move up
        assert tuned.final_config["forward_budget"] > 1
        assert tuned.final_config["flush_ticks"] < 16

    def test_goodput_recovers(self, tuned):
        offered = tuned.config.offered_per_tick
        assert tuned.steady_goodput() >= 0.9 * offered

    def test_windows_and_decisions_logged(self, tuned):
        assert tuned.windows >= tuned.config.ticks // 50
        assert tuned.decisions
        actions = {d.action for d in tuned.decisions}
        assert "step" in actions and "accept" in actions
        assert len(tuned.decision_log()) == len(tuned.decisions)

    def test_every_decision_is_a_traced_tune_stage(self, tuned):
        tune_events = [
            ev for ev in tuned.hub.collector.events() if ev.stage == Stage.TUNE
        ]
        assert len(tune_events) == len(tuned.decisions)
        by_window = {ev.attrs["window"]: ev.attrs for ev in tune_events}
        for d in tuned.decisions:
            assert by_window[d.window]["action"] == d.action

    def test_snapshots_expose_lane_latency(self, tuned):
        assert tuned.snapshots
        assert any(
            s.lane_latency_us.get(LANE_LATENCY) for s in tuned.snapshots
        )
        assert tuned.steady_p99_us(LANE_LATENCY) > 0.0

    def test_summary_shape(self, tuned):
        summary = tuned.summary()
        for key in ("windows", "initial_config", "final_config",
                    "steady_goodput_per_tick", "steady_p99_us",
                    "tuner_fingerprint"):
            assert key in summary

    def test_fingerprint_deterministic(self, tuned):
        again = run_autotuned(
            short_config(),
            TuneConfig(window_ticks=50, initial=BAD_START),
        )
        assert again.tuner_fingerprint == tuned.tuner_fingerprint
        assert list(again.fingerprint_lines()) == list(tuned.fingerprint_lines())

    def test_different_seed_different_traffic(self, tuned):
        other = run_autotuned(
            short_config(seed=7),
            TuneConfig(window_ticks=50, initial=BAD_START),
        )
        assert other.result.offered != tuned.result.offered


class TestDisabledTwin:
    def test_disabled_controller_never_steps(self):
        res = run_autotuned(
            short_config(ticks=400),
            TuneConfig(window_ticks=50, enabled=False, initial=BAD_START),
        )
        assert res.decisions == []
        assert res.final_config == res.initial_config == dict(BAD_START)
        # identical harness: telemetry still streams and seals windows
        # (drain ticks keep sealing past the offered phase's 8)
        assert res.windows >= 8
        assert res.snapshots

    def test_static_good_config_outscores_static_bad(self):
        good = run_autotuned(
            short_config(ticks=400),
            TuneConfig(window_ticks=50, enabled=False),
        )
        bad = run_autotuned(
            short_config(ticks=400),
            TuneConfig(window_ticks=50, enabled=False, initial=BAD_START),
        )
        assert good.steady_goodput() > bad.steady_goodput()


class TestCodecKnobs:
    def test_decode_mode_knob_reaches_the_deserializer(self):
        """Regression: the knob's ``apply`` assigns ``deserializer.mode``
        on a live stack; the arena deserializer used to dispatch on a flag
        cached at construction, so the knob never left the compiled
        tier."""
        from repro.deploy import build
        from repro.proto import PLAN_METRICS, serialize
        from repro.workloads import bench_service
        from repro.workloads.openloop import default_knobs

        schema, service, servicer = bench_service()
        stack = build("offloaded", schema, service, servicer)
        knobs = {k.name: k for k in default_knobs(stack, {})}
        knob = knobs["decode_mode"]
        assert knob.values == ["interpretive", "generated"]
        assert knobs["encode_mode"].values == knob.values
        assert knob.value == stack.dpu.deserializer.mode == "generated"

        method_id = next(iter(stack.dpu.method_table))
        wire = serialize(schema["bench.Small"](id=7))

        def gen_traffic_of_one_call():
            before = PLAN_METRICS.gen_compiles + PLAN_METRICS.gen_cache_hits
            stack.dpu.call(method_id, wire, lambda view, flags: None)
            return PLAN_METRICS.gen_compiles + PLAN_METRICS.gen_cache_hits - before

        assert gen_traffic_of_one_call() > 0
        knob.set_index(knob.values.index("interpretive"))
        assert stack.dpu.deserializer.mode == "interpretive"
        assert gen_traffic_of_one_call() == 0
        knob.set_index(knob.values.index("generated"))
        assert gen_traffic_of_one_call() > 0
