"""Tests for the five micro-benchmarks' structure and harness behaviour.

These run on reduced domains/iterations — the real-domain acceptance runs
live in test_figures_shape.py against the session-scoped suite results.
"""

import pytest

from repro.arch import RV770, all_gpus
from repro.il.text import emit_il
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.kernels import KernelRecipe
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
from repro.suite.base import SeriesSpec, standard_series


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
        ).build()
        assert kernel.input_space() is MemorySpace.GLOBAL
        assert kernel.output_space() is MemorySpace.COLOR_BUFFER

    def test_fig10_fully_global(self):
        bench = ALUFetchBenchmark.figure10()
        kernel = bench.build_kernel(
            1.0, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        ).build()
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
        ).build()
        assert kernel.alu_instruction_count() == 9
        assert kernel.fetch_instruction_count() == 10

    def test_fig12_uses_global(self):
        bench = ReadLatencyBenchmark.figure12()
        kernel = bench.build_kernel(
            4, SeriesSpec(RV770, ShaderMode.PIXEL, DataType.FLOAT)
        ).build()
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
    @pytest.mark.parametrize("figure", sorted(BENCHMARKS))
    def test_build_kernel_returns_a_stable_recipe(self, figure):
        # Units carry recipes, and the cache key holds the recipe instead
        # of the IL text: building one twice must give the same text.
        bench = BENCHMARKS[figure]()
        spec = bench.series_specs(all_gpus())[0]
        for value in bench.sweep_values(fast=True)[:3]:
            recipe = bench.build_kernel(value, spec)
            assert isinstance(recipe, KernelRecipe)
            assert emit_il(recipe.build()) == emit_il(recipe.build())

    def test_default_engine_runs_each_unit_through_the_pool_function(
        self, monkeypatch
    ):
        # perfbench times suite-cold requests by rebinding these two
        # names in the scheduler module; a run without an engine must go
        # through both, once per distinct unit.
        import repro.suite.base as base
        from repro.jobs import scheduler

        bench = WriteLatencyBenchmark.figure13(
            domain=(128, 128), iterations=7
        )
        expected = bench.run(gpus=(RV770,), fast=True)
        distinct = {
            unit.key
            for *_, unit in bench.plan_units(gpus=(RV770,), fast=True)
        }
        ran, records = [], []
        run_payload = scheduler.run_payload
        record_point = scheduler.record_point

        def counting_payload(unit):
            ran.append(unit)
            return run_payload(unit)

        def counting_record(record):
            records.append(record)
            return record_point(record)

        monkeypatch.setattr(scheduler, "run_payload", counting_payload)
        monkeypatch.setattr(scheduler, "record_point", counting_record)
        result = bench.run(gpus=(RV770,), fast=True)
        assert result == expected
        assert len(distinct) > 1
        assert {unit.key for unit in ran} == distinct
        assert len(ran) == len(distinct)
        assert len(records) == len(distinct)
        # perfbench also reads this binding at start-up.
        assert callable(base.time_kernel)

    def test_suite_runs_every_figure_through_one_engine_run(self):
        from repro import telemetry

        figures = ["fig15a", "fig16", "fig13"]
        with telemetry.recording() as tracer:
            results = run_suite(figures, gpus=(RV770,), fast=True)
        schedulers = [s for s in tracer.finished() if s.name == "scheduler"]
        assert len(schedulers) == 1
        points = sum(
            len(series) for result in results.values()
            for series in result.series
        )
        assert schedulers[0].attributes["units"] == points
        separate = {
            name: run_benchmark(name, gpus=(RV770,), fast=True)
            for name in figures
        }
        assert list(results) == figures
        assert {name: r.to_json() for name, r in results.items()} == {
            name: r.to_json() for name, r in separate.items()
        }
