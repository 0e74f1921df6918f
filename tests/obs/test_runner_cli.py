"""End-to-end: the traced workload runner on both deployments, and the
``repro trace`` / ``repro top`` / ``repro metrics`` CLI surfaces."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.perfetto import validate_trace_events
from repro.obs.runner import DEPLOYMENTS, run_traced_workload


class TestOffloadedRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_traced_workload("offloaded", requests=12)

    def test_no_errors(self, result):
        assert result.errors == 0
        assert result.requests == 12

    def test_datapath_timelines_span_dpu_and_host(self, result):
        datapath = [tl for tl in result.timelines
                    if tl.tid and tl.tid[0] == "rdma"]
        assert len(datapath) == 12
        for tl in datapath:
            stages = set(tl.stages())
            # The acceptance bar: >= 6 distinct stages per request...
            assert len(stages) >= 6, sorted(stages)
            # ...crossing both the DPU-side and host-side components.
            comps = tl.components()
            assert any(c.startswith("dpu.") for c in comps), comps
            assert any(c.startswith("host.") for c in comps), comps

    def test_full_stage_ladder_present(self, result):
        tl = next(tl for tl in result.timelines
                  if tl.tid and tl.tid[0] == "rdma")
        assert set(tl.stages()) >= {
            "ingress", "deserialize", "enqueue", "block_seal", "transmit",
            "deliver", "dispatch", "callback", "response_emit",
            "response_deliver", "respond",
        }

    def test_client_view_correlatable_by_call_id(self, result):
        xrpc = [tl for tl in result.timelines if tl.tid and tl.tid[0] == "xrpc"]
        assert xrpc
        assert all("call_id" in tl.attrs() for tl in xrpc)

    def test_trace_events_validate(self, result):
        doc = result.trace_events()
        assert validate_trace_events(doc) == []

    def test_stage_histograms_populated(self, result):
        table = result.latency.table()
        for stage in ("deserialize", "dispatch", "transmit"):
            assert stage in table
        text = result.registry.expose()
        assert 'quantile="0.99"' in text

    def test_endpoint_stats_exported_alongside(self, result):
        text = result.registry.expose()
        assert "trace_offloaded_client_requests_sent_total" in text


class TestCoreRun:
    def test_core_deployment_traces_and_samples_errors(self):
        res = run_traced_workload("core", requests=32)
        # i % 16 == 15 requests hit the error handler by design.
        assert res.errors == 2
        errored = [tl for tl in res.sampled if tl.errored]
        assert errored  # tail sampler kept every errored request
        assert validate_trace_events(res.trace_events()) == []

    def test_explicit_context_mode(self):
        res = run_traced_workload("core", requests=8, explicit_context=True)
        assert res.errors == 0
        assert any(tl.tid and tl.tid[0] == "ctx" for tl in res.timelines)

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError):
            run_traced_workload("gpu")
        assert DEPLOYMENTS == ("offloaded", "core", "procs")


class TestProcsRun:
    """The 3-OS-process deployment: child trace rings merge into the
    parent collector and the export shows client/DPU/host lanes."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_traced_workload("procs", requests=9)

    def test_no_errors(self, result):
        assert result.errors == 0
        assert result.requests == 9

    def test_three_process_lanes(self, result):
        comps = result.collector.components()
        assert "client.xrpc" in comps
        assert any(c.startswith("dpu.") for c in comps), comps
        assert any(c.startswith("host.") for c in comps), comps

    def test_trace_events_validate(self, result):
        doc = result.trace_events()
        assert validate_trace_events(doc) == []
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "thread_name"}
        assert "client.xrpc" in lanes
        assert any(lane.startswith("dpu.") for lane in lanes), lanes
        assert any(lane.startswith("host.") for lane in lanes), lanes

    def test_procs_requires_shm(self):
        with pytest.raises(ValueError):
            run_traced_workload("procs", requests=1, transport="inproc")


class TestCli:
    def test_trace_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "--deployment", "offloaded",
                   "--requests", "9", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_trace_events(doc) == []
        assert f"wrote {out}" in capsys.readouterr().out

    def test_trace_check_valid(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--requests", "6", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "--check", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_trace_check_rejects_corrupt(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z", "name": "x", "ts": 1}]}')
        assert main(["trace", "--check", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_trace_stdout_mode(self, capsys):
        assert main(["trace", "--deployment", "core", "--requests", "4",
                     "--slowest", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_trace_events(doc) == []

    def test_top_aggregates_batches(self, capsys):
        rc = main(["top", "--deployment", "core", "--batches", "2",
                   "--requests-per-batch", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(end-to-end)" in out

    def test_metrics_dumps_exposition(self, capsys):
        rc = main(["metrics", "--deployment", "core", "--requests", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace_stage_latency_seconds_bucket" in out
        assert "# HELP" in out

    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_metrics_names_and_help_are_stable(self, deployment):
        """``repro metrics`` prints the families and HELP lines it printed
        before collectors replaced the exporters.  A fresh process each:
        the codec counters are process-wide, and which labelled families
        have samples depends on what ran before."""
        golden = json.loads(
            (pathlib.Path(__file__).parent / "metrics_scrape_golden.json").read_text()
        )[deployment]
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "metrics", "--deployment", deployment],
            capture_output=True, text=True, env=env, timeout=300,
        ).stdout
        lines = out.splitlines()
        assert sorted(line for line in lines if line.startswith("# HELP ")) == golden["help"]
        families = {line.split("{")[0].split(" ")[0]
                    for line in lines if line and not line.startswith("#")}
        assert sorted(families) == golden["families"]

    def test_trace_shm_transport_flag(self, tmp_path, capsys):
        out = tmp_path / "shm.json"
        rc = main(["trace", "--deployment", "offloaded", "--transport", "shm",
                   "--requests", "6", "-o", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "--check", str(out)]) == 0

    def test_trace_procs_deployment(self, tmp_path, capsys):
        out = tmp_path / "procs.json"
        rc = main(["trace", "--deployment", "procs",
                   "--requests", "6", "-o", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "--check", str(out)]) == 0
        assert "valid" in capsys.readouterr().out
