"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestInformational:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Radeon HD 4870" in out
        assert "800 ALUs" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "TABLE I" in capsys.readouterr().out


class TestKernelCommands:
    def test_generate_emits_il(self, capsys):
        assert main(["generate", "--inputs", "3", "--alu-ops", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("il_ps_2_0")
        assert "sample_resource(0)" in out
        assert out.rstrip().endswith("end")

    def test_generate_register_usage(self, capsys):
        assert (
            main(
                [
                    "generate",
                    "--generator",
                    "register",
                    "--inputs",
                    "64",
                    "--space",
                    "8",
                    "--step",
                    "4",
                ]
            )
            == 0
        )
        assert "sample_resource(63)" in capsys.readouterr().out

    def test_compile_disassembles(self, capsys):
        assert main(["compile", "--inputs", "3", "--alu-ops", "3"]) == 0
        out = capsys.readouterr().out
        assert "TEX: ADDR(" in out
        assert "END_OF_PROGRAM" in out

    def test_compile_from_file(self, tmp_path, capsys):
        assert main(["generate", "--inputs", "2", "--alu-ops", "2"]) == 0
        il_text = capsys.readouterr().out
        path = tmp_path / "kernel.il"
        path.write_text(il_text)
        assert main(["compile", "--il", str(path)]) == 0
        assert "EXP_DONE" in capsys.readouterr().out

    def test_ska_report(self, capsys):
        assert main(["ska", "--inputs", "16", "--ratio", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "ALU:Fetch ratio:      1.00" in out
        assert "good band" in out

    def test_lint_clean_kernel(self, capsys):
        assert main(["lint", "--inputs", "4", "--ratio", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "clean (0 diagnostics)" in out
        assert "compiled:" in out

    def test_lint_mode_aliases(self, capsys):
        assert (
            main(["lint", "--inputs", "4", "--mode", "cs", "--global-outputs"])
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--inputs", "4", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["clean"] is True
        assert record["diagnostics"] == []
        assert record["program"]["gpr_count"] >= 1

    def test_lint_bad_il_exits_nonzero(self, tmp_path, capsys):
        from repro.il import emit_il
        from repro.il.instructions import Operand, position, SampleInstruction, temp
        from repro.il.module import ILKernel, InputDecl, OutputDecl
        from repro.il.types import DataType, MemorySpace, ShaderMode

        # Declares an output it never writes and an input it never uses.
        bad = ILKernel(
            name="bad",
            mode=ShaderMode.PIXEL,
            dtype=DataType.FLOAT,
            inputs=(InputDecl(0, MemorySpace.TEXTURE, DataType.FLOAT),),
            outputs=(OutputDecl(0, MemorySpace.COLOR_BUFFER, DataType.FLOAT),),
            body=(SampleInstruction(temp(0), 0, Operand(position())),),
        )
        path = tmp_path / "bad.il"
        path.write_text(emit_il(bad))
        assert main(["lint", "--il", str(path)]) == 1
        out = capsys.readouterr().out
        assert "V006" in out or "V007" in out
        assert "error(s)" in out

    def test_lint_strict_promotes_warnings(self, tmp_path, capsys):
        from repro.il import emit_il
        from repro.il.instructions import (
            ALUInstruction,
            ExportInstruction,
            Operand,
            SampleInstruction,
            position,
            temp,
        )
        from repro.il.module import ILKernel, InputDecl, OutputDecl
        from repro.il.opcodes import ILOp
        from repro.il.types import DataType, MemorySpace, ShaderMode

        # Valid kernel plus one dead ALU write (warning V008, no errors).
        warn = ILKernel(
            name="warn",
            mode=ShaderMode.PIXEL,
            dtype=DataType.FLOAT,
            inputs=(InputDecl(0, MemorySpace.TEXTURE, DataType.FLOAT),),
            outputs=(OutputDecl(0, MemorySpace.COLOR_BUFFER, DataType.FLOAT),),
            body=(
                SampleInstruction(temp(0), 0, Operand(position())),
                ALUInstruction(
                    ILOp.ADD, temp(1), (Operand(temp(0)), Operand(temp(0)))
                ),
                ALUInstruction(
                    ILOp.ADD, temp(2), (Operand(temp(1)), Operand(temp(1)))
                ),
                ExportInstruction(0, Operand(temp(1))),
            ),
        )
        path = tmp_path / "warn.il"
        path.write_text(emit_il(warn))
        assert main(["lint", "--il", str(path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--il", str(path), "--strict"]) == 1
        assert "V008" in capsys.readouterr().out

    def test_ska_reports_verifier_clean(self, capsys):
        assert main(["ska", "--inputs", "4"]) == 0
        assert "Verifier:             clean" in capsys.readouterr().out

    def test_ska_reports_a_broken_pass_instead_of_raising(
        self, capsys, monkeypatch
    ):
        import repro.compiler.pipeline as pipeline
        from repro.il.instructions import ALUInstruction
        from repro.il.opcodes import ILOp

        def wrong_op_pass(kernel, _index=None):
            body = list(kernel.body)
            for i, instr in enumerate(body):
                if isinstance(instr, ALUInstruction) and instr.op is ILOp.ADD:
                    body[i] = ALUInstruction(ILOp.MUL, instr.dest, instr.sources)
                    break
            return kernel.with_body(tuple(body)), 1

        monkeypatch.setattr(pipeline, "eliminate_dead_code", wrong_op_pass)
        # ska compiles unverified and reports the lowering drift itself.
        assert main(["ska", "--inputs", "4"]) == 1
        out = capsys.readouterr().out
        assert "Verifier:             1 error(s)" in out
        assert "V203 error: lowering changed the output" in out

    def test_time_reports_bound(self, capsys):
        assert (
            main(
                [
                    "time",
                    "--inputs",
                    "8",
                    "--ratio",
                    "10",
                    "--gpu",
                    "5870",
                    "--iterations",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bound=alu" in out

    def test_advise_prints_suggestions(self, capsys):
        assert (
            main(
                ["advise", "--inputs", "16", "--ratio", "0.25", "--iterations", "1"]
            )
            == 0
        )
        assert "increase ALU operations per fetch" in capsys.readouterr().out

    def test_global_spaces_flags(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "--inputs",
                    "3",
                    "--alu-ops",
                    "3",
                    "--global-inputs",
                    "--global-outputs",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "VFETCH" in out
        assert "MEM0" in out


class TestFigureCommands:
    def test_figure_with_save(self, tmp_path, capsys):
        assert (
            main(["figure", "fig13", "--save", str(tmp_path), "--chart"]) == 0
        )
        out = capsys.readouterr().out
        assert "Streaming Store Latency" in out
        saved = json.loads((tmp_path / "fig13.json").read_text())
        assert saved["name"] == "fig13"
        assert (tmp_path / "fig13.csv").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_suite_subset(self, capsys):
        assert main(["suite", "--figures", "fig13", "fig14"]) == 0
        out = capsys.readouterr().out
        assert "expectations hold" in out
        assert "1/4th" in out  # the fig14 claim was evaluated

    def test_fast_and_full_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["suite", "--fast", "--full"])


class TestJobsCommands:
    def test_figure_with_cache_is_identical_and_reused(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        save_a, save_b = tmp_path / "a", tmp_path / "b"
        args = ["figure", "fig13", "--fast", "--cache-dir", str(cache_dir)]
        assert main([*args, "--save", str(save_a)]) == 0
        assert main([*args, "--save", str(save_b)]) == 0
        capsys.readouterr()
        cold = (save_a / "fig13.json").read_text()
        warm = (save_b / "fig13.json").read_text()
        assert cold == warm  # byte-identical figure JSON from cache

        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "entries:" in out

    def test_cache_stats_json_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "figure", "fig13", "--fast",
                    "--cache-dir", str(cache_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0 and stats["stale"] == 0
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        capsys.readouterr()

    def test_cache_gc_reports_removals(self, tmp_path, capsys):
        assert main(["cache", "gc", "--dir", str(tmp_path / "empty")]) == 0
        assert "removed 0 stale entries" in capsys.readouterr().out

    def test_grid_command_prints_csv_and_knees(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        assert (
            main(
                [
                    "grid",
                    "--inputs", "4", "8",
                    "--ratio-max", "2",
                    "--iterations", "100",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--csv", str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("inputs,0.25,")
        assert "knee @ 4 inputs:" in out
        assert csv_path.read_text().startswith("inputs,")


class TestTelemetryCommands:
    def test_figure_telemetry_writes_manifest(self, tmp_path, capsys):
        from repro import telemetry

        manifest = tmp_path / "fig13.jsonl"
        assert (
            main(["figure", "fig13", "--telemetry", str(manifest)]) == 0
        )
        out = capsys.readouterr().out
        assert f"telemetry manifest: {manifest}" in out
        records = telemetry.read_manifest(manifest)
        assert records[0]["type"] == "run"
        assert records[0]["config_hash"]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"figure", "series", "compile", "simulate"} <= names
        metrics = {r["name"] for r in records if r["type"] == "metric"}
        assert any(n.startswith("sim.bottleneck{") for n in metrics)

    def test_figure_save_records_manifest_relative_to_save_dir(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "figure", "fig13",
                    "--save", str(tmp_path),
                    "--telemetry", str(manifest),
                ]
            )
            == 0
        )
        saved = json.loads((tmp_path / "fig13.json").read_text())
        assert saved["manifest"] == "m.jsonl"

    def test_suite_out_records_manifest_relative_to_out_dir(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.jsonl"
        assert (
            main(
                [
                    "suite", "--figures", "fig15a",
                    "--out", str(tmp_path),
                    "--telemetry", str(manifest),
                ]
            )
            == 0
        )
        saved = json.loads((tmp_path / "fig15a.json").read_text())
        assert saved["manifest"] == "manifest.jsonl"

    def test_stats_summarizes_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "time",
                    "--inputs",
                    "4",
                    "--iterations",
                    "10",
                    "--telemetry",
                    str(manifest),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage attribution:" in out
        assert "config_hash:" in out
        assert "simulate" in out
        assert "Counters and gauges:" in out

    def test_stats_missing_file_fails(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "repro stats:" in capsys.readouterr().err

    def test_stats_rejects_non_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "nope"}\n')
        assert main(["stats", str(bogus)]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_profile_prints_attribution(self, capsys):
        assert (
            main(["profile", "--inputs", "4", "--iterations", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "Per-stage attribution:" in out
        assert "hottest spans:" in out
        assert "simulate" in out and "compile" in out

    def test_telemetry_off_after_command(self):
        from repro import telemetry

        assert main(["profile", "--inputs", "2", "--iterations", "1"]) == 0
        assert not telemetry.enabled()


class TestTraceAndTopology:
    def test_topology(self, capsys):
        assert main(["topology", "--gpu", "5870"]) == 0
        out = capsys.readouterr().out
        assert "RV870 thread organization" in out
        assert "1600 stream cores" in out

    def test_trace_gantt(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "--inputs",
                    "8",
                    "--ratio",
                    "1.0",
                    "--wavefronts",
                    "4",
                    "--width",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "alu" in out and "tex" in out and "util:" in out


def _exit_code(argv: list[str]) -> int:
    """``main``'s return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: IL text the parser rejects on its second line.
MALFORMED_IL = "il_ps_2_0\nbogus line here\nend\n"

#: every verb that takes its kernel from ``--il`` or the generator flags.
KERNEL_VERBS = [
    "generate", "compile", "lint", "ska", "time", "advise", "trace", "profile"
]


class TestUserErrors:
    @pytest.mark.parametrize("verb", KERNEL_VERBS)
    def test_every_kernel_verb_reports_a_malformed_il_file(
        self, verb, capsys, tmp_path
    ):
        malformed = tmp_path / "malformed.il"
        malformed.write_text(MALFORMED_IL)
        assert _exit_code([verb, "--il", str(malformed)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "repro: line 2: unrecognized instruction: 'bogus line here'"
        ]
        assert captured.out == ""

    def test_lint_reports_an_alu_write_to_an_output_register(
        self, capsys, tmp_path
    ):
        from tests.test_verify import ALU_OUTPUT_IL

        path = tmp_path / "alu_output.il"
        path.write_text(ALU_OUTPUT_IL)
        assert _exit_code(["lint", "--il", str(path)]) == 1
        captured = capsys.readouterr()
        assert "V011 error" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "verb", ["compile", "time", "advise", "trace", "profile", "ska"]
    )
    def test_every_compiling_verb_reports_an_invalid_kernel(
        self, verb, capsys, tmp_path
    ):
        # The kernel parses but fails validation (V011) when compiled.
        from tests.test_verify import ALU_OUTPUT_IL

        path = tmp_path / "alu_output.il"
        path.write_text(ALU_OUTPUT_IL)
        assert _exit_code([verb, "--il", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "repro: kernel 'parsed': instruction 2 (add o2, r0, r1) writes "
            "o2; ALU results go to temporaries (rN)"
        ]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ["time", "--mode", "cs", "--gpu", "3870"],
                1,
                "repro: RV670 does not support compute shader mode",
            ),
            (
                ["time", "--domain", "100000", "100000"],
                1,
                "repro: allocating 40000000000 bytes would exceed",
            ),
            (["time", "--gpu", "9999"], 2, "unknown GPU '9999'"),
            (
                ["trace", "--mode", "cs", "--gpu", "3870"],
                1,
                "repro: RV670 does not support compute shader mode",
            ),
            (
                ["lint", "--il", "{malformed}"],
                1,
                "repro: line 2: unrecognized instruction",
            ),
            (
                ["compile", "--il", "{missing}"],
                1,
                "repro: [Errno 2] No such file or directory",
            ),
            (
                ["time", "--inputs", "1"],
                1,
                "repro: at least two inputs are required",
            ),
        ],
        ids=[
            "compute-on-rv670", "out-of-memory", "unknown-gpu", "trace-rv670",
            "malformed-il", "missing-il-file", "one-input",
        ],
    )
    def test_expected_errors_report_without_traceback(
        self, argv, code, message, capsys, tmp_path
    ):
        malformed = tmp_path / "malformed.il"
        malformed.write_text(MALFORMED_IL)
        argv = [
            arg.format(malformed=malformed, missing=tmp_path / "missing.il")
            for arg in argv
        ]
        assert _exit_code(argv) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "--gpu", "9999"],
            ["lint", "--gpu", "9999"],
            ["ska", "--gpu", "9999"],
            ["profile", "--gpu", "9999"],
            ["grid", "--gpu", "9999"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_gpu_option_rejects_unknown_chips(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert "unknown GPU '9999'" in capsys.readouterr().err
