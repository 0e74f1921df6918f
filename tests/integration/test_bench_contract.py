"""The end-to-end benchmark's contract with ``src/`` (docs/TRANSPORT.md,
"what the benchmark patches").

``benchmarks/e2e/layers.py`` measures every layer from outside: when its
traced window opens it replaces attributes of modules, classes and
objects under ``src/`` with timing wrappers.  A refactor that renames one
of them, binds it early, or calls it with an argument the wrapper does
not take passes every other tier-1 test — and then the benchmark's
traced pass dies, or a layer's row silently reads zero.  This runs the
traced pass itself, on the two deployments that between them reach every
patch point, and reads the rows.  It reads ``benchmarks/e2e/``; it does
not edit it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

#: workload -> the per-layer rows (``fnmatch`` patterns) that must read
#: above zero: each is fed by a wrapper installed on a name under ``src/``
ROWS = {
    "mix_baseline": [
        "xrpc.framing.decode_us_per_req",   # FrameDecoder.feed / .frames
        "xrpc.server.self_us_per_req",      # XrpcServer.progress
        "proto.deserializer.us_per_req",    # repro.xrpc.server.parse
        "proto.serializer.us_per_req",      # repro.xrpc.server.prepare_emit -> .emit_into
        "proto.message.build_us_per_req",
        "proto.message.read_us_per_req",
    ],
    "small_offload": [
        "xrpc.framing.*",
        "xrpc.dpu_frontend.*_us_per_req",   # OffloadedXrpcServer.progress, the continuation
        "proto.serializer.*",               # repro.offload.engine.emit_writer -> writer
        "offload.arena_deserializer.*",     # estimate_size / deserialize, DeserializeStats
        "offload.materialize.*",
        "offload.engine.*",                 # DpuEngine.call, HostEngine.progress
        "core.endpoint.*",                  # enqueue / progress / register, both roles
        "rdma.fabric.transmit_us_per_req",  # transmit / step / flush
    ],
}


@pytest.mark.parametrize("workload", sorted(ROWS))
def test_the_traced_pass_finds_every_layer(workload):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for pattern in ROWS[workload]:
        rows = {name: value for name, value in values.items() if fnmatch(name, pattern)}
        assert rows, f"no per-layer row matches {pattern}"
        silent = [name for name, value in rows.items() if not value > 0]
        assert silent == [], f"{workload}: rows reading zero: {silent}"
