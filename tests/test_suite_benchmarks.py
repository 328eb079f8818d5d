"""Tests for the five micro-benchmarks' structure and harness behaviour.

These run on reduced domains/iterations — the real-domain acceptance runs
live in test_figures_shape.py against the session-scoped suite results.
"""

import pytest

from repro.arch import RV770, all_gpus
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.sim.config import PAPER_ITERATIONS
from repro.suite import (
    ALUFetchBenchmark,
    BENCHMARKS,
    DomainSizeBenchmark,
    ReadLatencyBenchmark,
    RegisterUsageBenchmark,
    WriteLatencyBenchmark,
    run_benchmark,
    run_suite,
)
from repro.suite.base import MicroBenchmark, SeriesSpec, standard_series


class TestSeriesSpecs:
    def test_labels_match_paper_legend(self):
        spec = SeriesSpec(RV770, ShaderMode.COMPUTE, DataType.FLOAT4)
        assert spec.label == "4870 Compute Float4"

    def test_standard_grid_skips_rv670_compute(self):
        labels = [s.label for s in standard_series(all_gpus())]
        assert "3870 Pixel Float" in labels
        assert "3870 Compute Float" not in labels
        assert "4870 Compute Float4" in labels
        # 3 gpus x 2 dtypes pixel + 2 gpus x 2 dtypes compute
        assert len(labels) == 10


class TestBenchmarkRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15a", "fig15b", "fig16", "fig17", "fig5ctl",
        }
        assert set(BENCHMARKS) == expected

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="unknown figure"):
            run_benchmark("fig99")

    def test_run_suite_writes_json(self, tmp_path):
        results = run_suite(
            figures=["fig13"], gpus=(RV770,), fast=True, out_dir=tmp_path
        )
        assert (tmp_path / "fig13.json").exists()
        assert "fig13" in results


class TestALUFetchBenchmark:
    def test_sweep_matches_paper(self):
        values = ALUFetchBenchmark.figure7().sweep_values()
        assert values[0] == 0.25
        assert values[-1] == 8.0
        assert len(values) == 32

    def test_fig8_is_compute_4x16(self):
        bench = ALUFetchBenchmark.figure8()
        specs = bench.series_specs((RV770,))
        assert all(s.mode is ShaderMode.COMPUTE for s in specs)
        assert all(s.block == (4, 16) for s in specs)

    def test_fig9_reads_global_writes_color(self):
        bench = ALUFetchBenchmark.figure9()
        kernel = bench.build_kernel(
            1.0, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        )
        assert kernel.input_space() is MemorySpace.GLOBAL
        assert kernel.output_space() is MemorySpace.COLOR_BUFFER

    def test_fig10_fully_global(self):
        bench = ALUFetchBenchmark.figure10()
        kernel = bench.build_kernel(
            1.0, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        )
        assert kernel.input_space() is MemorySpace.GLOBAL
        assert kernel.output_space() is MemorySpace.GLOBAL

    def test_fig10_drops_rv670(self):
        labels = [
            s.label
            for s in ALUFetchBenchmark.figure10().series_specs(all_gpus())
        ]
        assert not any("3870" in label for label in labels)

    def test_run_produces_full_grid(self):
        bench = ALUFetchBenchmark.figure7(domain=(128, 128), iterations=1)
        result = bench.run(gpus=(RV770,), fast=True)
        assert len(result.series) == 4  # 2 modes x 2 dtypes
        assert all(len(s) == len(bench.sweep_values(True)) for s in result.series)

    def test_points_carry_diagnostics(self):
        bench = ALUFetchBenchmark.figure7(domain=(128, 128), iterations=1)
        result = bench.run(gpus=(RV770,), fast=True)
        point = result.series[0].points[0]
        assert point.gprs is not None
        assert point.resident_wavefronts is not None
        assert point.bound in {"alu", "fetch", "write", "latency"}


class TestReadLatencyBenchmark:
    def test_sweep_2_to_18(self):
        values = ReadLatencyBenchmark.figure11().sweep_values()
        assert values[0] == 2 and values[-1] == 18

    def test_alu_ops_pinned_to_minimum(self):
        bench = ReadLatencyBenchmark.figure11()
        kernel = bench.build_kernel(
            10, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        )
        assert kernel.alu_instruction_count() == 9
        assert kernel.fetch_instruction_count() == 10

    def test_fig12_uses_global(self):
        bench = ReadLatencyBenchmark.figure12()
        kernel = bench.build_kernel(
            4, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        )
        assert kernel.input_space() is MemorySpace.GLOBAL


class TestWriteLatencyBenchmark:
    def test_outputs_1_to_8(self):
        assert WriteLatencyBenchmark.figure13().sweep_values() == [
            float(v) for v in range(1, 9)
        ]

    def test_fig13_pixel_only(self):
        specs = WriteLatencyBenchmark.figure13().series_specs(all_gpus())
        assert all(s.mode is ShaderMode.PIXEL for s in specs)

    def test_fig14_includes_compute(self):
        specs = WriteLatencyBenchmark.figure14().series_specs(all_gpus())
        assert any(s.mode is ShaderMode.COMPUTE for s in specs)

    def test_gprs_constant_across_outputs(self):
        # §III-C: "the same number of global purpose registers ... with
        # increasing number of outputs"
        bench = WriteLatencyBenchmark.figure13(
            domain=(128, 128), iterations=1
        )
        result = bench.run(gpus=(RV770,), fast=True)
        for series in result.series:
            gprs = {p.gprs for p in series.points}
            assert max(gprs) - min(gprs) <= 1


class TestDomainSizeBenchmark:
    def test_pixel_step_8(self):
        values = DomainSizeBenchmark.figure15a().sweep_values()
        assert values[0] == 256 and values[-1] == 1024
        assert values[1] - values[0] == 8

    def test_compute_step_64(self):
        values = DomainSizeBenchmark.figure15b().sweep_values()
        assert values[1] - values[0] == 64

    def test_domain_for_is_square(self):
        bench = DomainSizeBenchmark.figure15a()
        spec = SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        assert bench.domain_for(512.0, spec) == (512, 512)

    def test_15b_excludes_rv670(self):
        labels = [
            s.label
            for s in DomainSizeBenchmark.figure15b().series_specs(all_gpus())
        ]
        assert not any("3870" in label for label in labels)


class TestRegisterUsageBenchmark:
    def test_x_axis_is_gpr_count(self):
        bench = RegisterUsageBenchmark.figure16(
            domain=(128, 128), iterations=1
        )
        result = bench.run(gpus=(RV770,), fast=True)
        for series in result.series:
            xs = series.xs()
            assert max(xs) > 60  # step 0 -> ~64 GPRs
            assert all(p.x == p.gprs for p in series.points)

    def test_control_plots_steps(self):
        bench = RegisterUsageBenchmark.clause_control(
            domain=(128, 128), iterations=1
        )
        result = bench.run(gpus=(RV770,), fast=True)
        xs = result.series[0].xs()
        assert xs == sorted(xs)
        assert len(set(xs)) == len(xs)

    def test_fig17_compute_4x16(self):
        specs = RegisterUsageBenchmark.figure17().series_specs(all_gpus())
        assert all(s.mode is ShaderMode.COMPUTE for s in specs)
        assert all(s.block == (4, 16) for s in specs)

    def test_default_domain_fits_all_boards(self):
        assert RegisterUsageBenchmark.figure16().domain == (512, 512)


class TestHarnessDefaults:
    def test_paper_iterations_default(self):
        assert ALUFetchBenchmark.figure7().iterations == PAPER_ITERATIONS

    def test_metadata_records_setup(self):
        bench = WriteLatencyBenchmark.figure13(
            domain=(128, 128), iterations=7
        )
        result = bench.run(gpus=(RV770,), fast=True)
        assert result.metadata["domain"] == [128, 128]
        assert result.metadata["iterations"] == 7


class TestOneSweepPath:
    def test_kernel_key_is_required(self):
        # A benchmark that does not say which sweep points share a
        # kernel cannot be planned, so it cannot be instantiated.
        class NoKey(MicroBenchmark):
            def sweep_values(self, fast=False):
                return [1.0]

            def build_kernel(self, value, spec):
                raise AssertionError("never planned")

        assert NoKey.__abstractmethods__ == {"kernel_key"}
        with pytest.raises(TypeError, match="kernel_key"):
            NoKey()

    def test_inline_path_times_each_launch_through_suite_base(
        self, monkeypatch
    ):
        import repro.suite.base as base

        bench = WriteLatencyBenchmark.figure13(
            domain=(128, 128), iterations=7
        )
        expected = bench.run(gpus=(RV770,), fast=True)
        calls = []
        original = base.time_kernel

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(base, "time_kernel", counting)
        result = bench.run(gpus=(RV770,), fast=True)
        assert result == expected
        points = sum(len(series) for series in result.series)
        assert points > 1
        assert len(calls) == points
