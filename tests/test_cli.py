"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "BlueField-3" in out
        assert "Credits" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "int CPU ns" in out
        assert len(out.splitlines()) > 10

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Small" in out and "x8000 Chars" in out
        assert "15" in out and "8003" in out

    def test_fig8_single_workload(self, capsys):
        assert main(["fig8", "--workload", "ints128"]) == 0
        out = capsys.readouterr().out
        assert "dpu:" in out and "cpu:" in out
        assert "stable=True" in out

    def test_protoc(self, tmp_path, capsys):
        proto = tmp_path / "thing.proto"
        proto.write_text(
            'syntax = "proto3"; package t; message M { int32 x = 1; }'
        )
        assert main(["protoc", str(proto), "--adt", "-o", str(tmp_path / "out")]) == 0
        outdir = tmp_path / "out"
        pb2 = outdir / "thing_pb2.py"
        adt = outdir / "thing_adt_pb2.py"
        assert pb2.exists() and adt.exists()
        # The generated module actually imports and works.
        import importlib.util

        spec = importlib.util.spec_from_file_location("thing_pb2", pb2)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.M(x=3).SerializeToString() == b"\x08\x03"

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliFig8Mix:
    def test_mix_flag(self, capsys):
        from repro.cli import main

        assert main(["fig8", "--mix"]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        assert "stable=True" in out


class TestCliAutotune:
    """The `repro top` surfaces: the live dashboard and the batch table."""

    ARGS = ["--ticks", "300", "--window", "50", "--seed", "2024"]

    def test_top_live_renders_dashboard(self, capsys):
        assert main(["top", "--live"] + self.ARGS) == 0
        captured = capsys.readouterr()
        assert "goodput" in captured.out
        assert "window" in captured.out
        assert "done:" in captured.err

    def test_top_batches_stream_tail_sample(self, capsys):
        assert main(["top", "--batches", "2", "--requests-per-batch", "8"]) == 0
        captured = capsys.readouterr()
        assert "tail sample:" in captured.err
        assert "retained" in captured.err
