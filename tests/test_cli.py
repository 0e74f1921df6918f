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

    def test_codegen(self, tmp_path, capsys):
        """``repro codegen`` emits an importable codec module and the
        WIRE_FIXED eligibility report.  ``Point`` carries one singular
        and one repeated field of every numeric kind, so a round trip of
        boundary values through the emitted module's ENCODERS / DECODERS
        against the interpretive oracle exercises every row of the kind
        table (repro/proto/kinds.py) through the artifact the CLI ships."""
        from repro.proto import (
            EncodeError,
            FieldValueError,
            get_fixed_layout,
            parse,
            serialize,
        )

        kinds = ["double", "float", "int32", "int64", "uint32", "uint64", "sint32",
                 "sint64", "fixed32", "fixed64", "sfixed32", "sfixed64", "bool", "Color"]
        fields = "".join(f"  {k} s{i} = {i + 1};\n  repeated {k} r{i} = {i + 21};\n"
                         for i, k in enumerate(kinds))
        proto = tmp_path / "smoke.proto"
        proto.write_text('syntax = "proto3";\npackage smoke;\nenum Color { NONE = 0; RED = 1; }\n'
                         f"message Point {{\n{fields}}}\n"
                         "message Tree { Point root = 1; oneof sel { int32 a = 2; } }\n")
        assert main(["codegen", str(proto), "-o", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "smoke.Point: eligible" in out and "smoke.Tree: ineligible" in out
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "smoke_codec", tmp_path / "out" / "smoke_codec.py")
        smoke_codec = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(smoke_codec)

        assert "smoke.Point" in smoke_codec.DECODERS
        Point = smoke_codec.MESSAGE_FACTORY.get_class_by_name("smoke.Point")
        bounds = {
            "double": [1.5, -0.0, 1e300], "float": [1.5, -2.5],
            "int32": [-1, 2**31 - 1, -2**31], "int64": [-1, 2**63 - 1, -2**63],
            "uint32": [1, 2**32 - 1], "uint64": [1, 2**64 - 1],
            "sint32": [-1, 2**31 - 1, -2**31], "sint64": [-1, 2**63 - 1, -2**63],
            "fixed32": [1, 2**32 - 1], "fixed64": [1, 2**64 - 1],
            "sfixed32": [-1, 2**31 - 1, -2**31], "sfixed64": [-1, 2**63 - 1, -2**63],
            "bool": [True, False, True], "enum": [1, -1, 2**31 - 1],
        }
        values = {fd.name: bounds[fd.type.value] if fd.is_repeated else bounds[fd.type.value][0]
                  for fd in Point.DESCRIPTOR.fields}
        msg = Point(**values)
        wire = smoke_codec.ENCODERS["smoke.Point"].serialize(msg)
        assert wire == serialize(msg, mode="interpretive")
        again = Point()
        smoke_codec.DECODERS["smoke.Point"].parse(again, memoryview(wire), 0, len(wire))
        assert again == msg == parse(Point, wire, mode="interpretive")

        # Each field is a generated property whose setter coerces inline:
        # one past the range of every integer kind is refused with
        # FieldValueError and the message keeps what it held.
        past = {"int32": 2**31, "int64": 2**63, "uint32": 2**32, "uint64": 2**64,
                "sint32": -2**31 - 1, "sint64": -2**63 - 1, "fixed32": -1, "fixed64": 2**64,
                "sfixed32": 2**31, "sfixed64": -2**63 - 1, "enum": -2**31 - 1}
        refused = 0
        for fd in Point.DESCRIPTOR.fields:
            if fd.is_repeated or fd.type.value not in past:
                continue
            with pytest.raises(FieldValueError):
                setattr(msg, fd.name, past[fd.type.value])
            refused += 1
            assert msg == Point(**values), fd.name
        assert refused == len(past) and not hasattr(Point(), "nope")

        # Point is fixed-layout eligible: the same values through its
        # WIRE_FIXED twin, against the same oracle.
        layout = get_fixed_layout(Point.DESCRIPTOR, smoke_codec.MESSAGE_FACTORY)
        fixed = layout.measure(msg)
        payload = bytearray(fixed.size)
        assert fixed.emit_into(payload, 0) == fixed.size
        assert layout.parse(Point, payload) == parse(Point, wire, mode="interpretive")

        # Both wire modes emit through one room check: an exact-size
        # buffer takes the message, a one-byte-short one raises
        # EncodeError and is left as it was (never grown).
        for sized in (smoke_codec.ENCODERS["smoke.Point"].measure(msg), fixed):
            exact, short = bytearray(sized.size), bytearray(sized.size - 1)
            assert sized.emit_into(exact, 0) == sized.size and bytes(exact) == sized.to_bytes()
            with pytest.raises(EncodeError):
                sized.emit_into(short, 0)
            assert short == bytes(sized.size - 1)

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["trace", "top", "metrics"])
    def test_core_exits_zero_at_defaults(self, command, tmp_path, capsys):
        """The core workload answers every 16th request with an error
        by design; at the default request counts (more than 16) those
        expected answers are not failures."""
        args = [command, "--deployment", "core"]
        if command == "trace":
            args += ["-o", str(tmp_path / "core.json")]
        assert main(args) == 0


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
        # the open loop runs on a simulated clock: say so, in its units
        assert "modeled: 1 tick = 100 µs" in captured.out
        assert "done:" in captured.err

    def test_top_batches_stream_tail_sample(self, capsys):
        assert main(["top", "--batches", "2", "--requests-per-batch", "8"]) == 0
        captured = capsys.readouterr()
        assert "tail sample:" in captured.err
        assert "retained" in captured.err
