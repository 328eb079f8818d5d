"""Tests for the cross-layer telemetry subsystem (repro.telemetry)."""

import json
import math
from dataclasses import dataclass, field, replace

import pytest

from repro import telemetry
from repro.sim import LaunchConfig, SimConfig, simulate_launch
from repro.suite import run_benchmark
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    Tracer,
    config_hash,
)
from repro.telemetry.spans import _NOOP


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("figure") as root:
            with tracer.span("series") as mid:
                with tracer.span("compile") as leaf:
                    pass
        figure, series, compile_ = tracer.spans
        assert figure is root and series is mid and compile_ is leaf
        assert figure.parent_id is None and figure.depth == 0
        assert series.parent_id == figure.span_id and series.depth == 1
        assert compile_.parent_id == series.span_id and compile_.depth == 2

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        run, a, b = tracer.spans
        assert a.parent_id == b.parent_id == run.span_id
        assert a.depth == b.depth == 1

    def test_durations_are_positive_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert 0.0 <= inner.duration <= outer.duration
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_attributes_at_open_and_mid_flight(self):
        tracer = Tracer()
        with tracer.span("compile", kernel="k") as sp:
            sp.set(gprs=9, clauses=4)
        assert tracer.spans[0].attributes == {
            "kernel": "k",
            "gprs": 9,
            "clauses": 4,
        }

    def test_exception_annotates_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.spans
        assert span.end is not None
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.open_spans == []

    def test_disabled_module_span_is_shared_noop(self):
        assert not telemetry.enabled()
        first = telemetry.span("anything", key=1)
        second = telemetry.span("else")
        assert first is second is _NOOP
        with first as sp:
            assert sp is None

    def test_enable_disable_roundtrip(self):
        tracer = telemetry.enable()
        assert telemetry.enabled()
        with telemetry.span("live"):
            pass
        telemetry.disable()
        assert not telemetry.enabled()
        assert [s.name for s in tracer.finished()] == ["live"]
        # a new enable(fresh=True) installs an empty tracer
        assert telemetry.enable().spans == []


class TestMetrics:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_make_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("sim.bottleneck", bound="alu").inc()
        registry.counter("sim.bottleneck", bound="fetch").inc(2)
        assert registry.get("sim.bottleneck{bound=alu}").value == 1
        assert registry.get("sim.bottleneck{bound=fetch}").value == 2

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_percentiles(self):
        h = Histogram("t")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    def test_histogram_interpolates_between_samples(self):
        h = Histogram("t")
        for v in (0.0, 10.0):
            h.observe(v)
        assert h.percentile(25) == pytest.approx(2.5)

    def test_empty_histogram(self):
        h = Histogram("t")
        assert math.isnan(h.percentile(50))
        assert h.summary() == {"count": 0}
        with pytest.raises(ValueError):
            h.percentile(101)


class TestManifest:
    def _record_one_launch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with telemetry.recording(
            path, argv=["time", "--inputs", "4"], config=SimConfig()
        ):
            from repro.cal import time_kernel
            from repro.kernels import KernelParams, generate_generic

            kernel = generate_generic(
                KernelParams(inputs=4, alu_fetch_ratio=1.0)
            )
            time_kernel("4870", kernel, iterations=10)
        return path

    def test_jsonl_roundtrip(self, tmp_path):
        path = self._record_one_launch(tmp_path)
        records = telemetry.read_manifest(path)
        run = records[0]
        assert run["type"] == "run"
        assert run["schema"] == telemetry.SCHEMA_VERSION
        assert run["argv"] == ["time", "--inputs", "4"]
        assert run["config_hash"] == config_hash(SimConfig())
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"time_kernel", "compile", "simulate"} <= names
        metric_names = {
            r["name"] for r in records if r["type"] == "metric"
        }
        assert "sim.launches" in metric_names
        assert any(n.startswith("sim.bottleneck{") for n in metric_names)
        # every line is valid standalone JSON
        for line in path.read_text().splitlines():
            assert json.loads(line)["type"] in ("run", "span", "metric")

    def test_read_rejects_non_manifest(self, tmp_path):
        bogus = tmp_path / "x.jsonl"
        bogus.write_text('{"type": "span"}\n')
        with pytest.raises(ValueError, match="missing 'run' header"):
            telemetry.read_manifest(bogus)

    def test_read_rejects_schema_mismatch(self, tmp_path):
        bogus = tmp_path / "x.jsonl"
        bogus.write_text('{"type": "run", "schema": 999}\n')
        with pytest.raises(ValueError, match="schema"):
            telemetry.read_manifest(bogus)

    def test_summarize_manifest_renders(self, tmp_path):
        path = self._record_one_launch(tmp_path)
        report = telemetry.summarize_manifest(telemetry.read_manifest(path))
        assert "Per-stage attribution:" in report
        assert "simulate" in report
        assert "config_hash:" in report

    def test_recording_restores_prior_state(self, tmp_path):
        assert not telemetry.enabled()
        with telemetry.recording():
            assert telemetry.enabled()
            with telemetry.recording(tmp_path / "inner.jsonl"):
                assert telemetry.enabled()
            assert telemetry.enabled()  # outer recording still on
        assert not telemetry.enabled()

    def test_recording_closes_dangling_spans_on_error(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with telemetry.recording(path) as tracer:
                tracer.start("left-open")
                raise RuntimeError("boom")
        (span_record,) = [
            r
            for r in telemetry.read_manifest(path)
            if r["type"] == "span"
        ]
        assert span_record["end"] is not None


class TestConfigHash:
    def test_changes_with_model_parameters(self):
        base = SimConfig()
        tweaked = replace(base, thrash_coeff=base.thrash_coeff + 0.1)
        assert config_hash(base) != config_hash(tweaked)

    def test_none_and_non_dataclass(self):
        assert config_hash(None) is None
        with pytest.raises(TypeError):
            config_hash({"not": "a dataclass"})

    def test_compare_false_fields_skipped(self):
        @dataclass
        class Cfg:
            a: int = 1
            session: object = field(default=None, compare=False)

        assert config_hash(Cfg()) == config_hash(Cfg(session=object()))


class TestInstrumentationIntegration:
    def test_figure_run_produces_figure_and_series_spans(self):
        with telemetry.recording() as tracer:
            run_benchmark("fig13", fast=True)
        names = [s.name for s in tracer.finished()]
        assert "figure" in names
        assert names.count("series") >= 2
        assert "compile" in names and "simulate" in names
        figure = next(s for s in tracer.spans if s.name == "figure")
        assert figure.attributes["figure"] == "fig13"
        assert figure.attributes["series"] >= 2
        registry = telemetry.metrics()
        assert registry.get("suite.points{figure=fig13}").value > 0

    def test_kernel_builds_are_a_named_stage(self, tmp_path):
        from repro.jobs.scheduler import JobEngine, JobOptions
        from repro.suite import BENCHMARKS, run_suite

        def record():
            engine = JobEngine(JobOptions(cache_dir=tmp_path))
            try:
                with telemetry.recording() as tracer:
                    run_suite(["fig11"], fast=True, engine=engine)
            finally:
                engine.close()
            return tracer.finished()

        cold = record()
        kernels = [s for s in cold if s.name == "kernels"]
        scheduler = next(s for s in cold if s.name == "scheduler")
        assert [s.parent_id for s in kernels] == [scheduler.span_id]
        plan = BENCHMARKS["fig11"]().plan_units(fast=True)
        recipes = {unit.recipe for *_, unit in plan}
        assert kernels[0].attributes == {"recipes": len(recipes)}
        # A warm rerun replays every unit from the cache: nothing to build.
        warm = record()
        assert not [s for s in warm if s.name == "kernels"]
        assert any(s.name == "scheduler" for s in warm)

    def test_pipeline_verification_is_counted(self):
        from repro.compiler import compile_kernel
        from repro.kernels import KernelParams, generate_generic

        kernels = [
            generate_generic(KernelParams(inputs=n, alu_fetch_ratio=1.0))
            for n in (2, 4)
        ]
        with telemetry.recording() as tracer:
            for kernel in kernels:
                compile_kernel(kernel)
        spans = [s for s in tracer.finished() if s.name == "verify"]
        registry = telemetry.metrics()
        assert len(spans) == 2
        assert registry.get("verify.kernels").value == len(spans)
        assert registry.get("verify.errors").value == 0
        assert registry.get("verify.warnings").value == 0

    def test_lint_records_one_verify_span(self):
        from repro.kernels import KernelParams, generate_generic
        from repro.verify import lint_kernel

        with telemetry.recording() as tracer:
            lint_kernel(generate_generic(KernelParams(inputs=4)))
        names = [s.name for s in tracer.finished()]
        assert names.count("verify") == 1
        assert names.count("lint") == 1
        assert telemetry.metrics().get("verify.kernels").value == 1

    def test_simulated_events_are_counted(self):
        # One event per clause execution: on a launch small enough to
        # simulate every wavefront, the count equals the number of
        # events a trace of the whole launch records.
        from repro.arch import RV770
        from repro.compiler import compile_kernel
        from repro.kernels import KernelParams, generate_generic
        from repro.sim.trace import trace_launch

        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=2.0))
        program = compile_kernel(kernel, RV770)
        launch = LaunchConfig(domain=(128, 128), iterations=10)
        with telemetry.recording():
            result = simulate_launch(program, RV770, launch)
            events = telemetry.metrics().get("sim.events").value
        counters = result.counters
        # every wavefront of the busiest SIMD, none extrapolated
        assert counters.wavefronts_simulated == -(
            -counters.wavefronts_total // RV770.num_simds
        )
        trace = trace_launch(
            program, RV770, launch,
            max_wavefronts=counters.wavefronts_simulated,
        )
        assert events == len(trace) == (
            counters.wavefronts_simulated * len(program.clauses)
        )

    def test_launch_summary_reports_bound_and_per_iteration(self):
        from repro.compiler import compile_kernel
        from repro.kernels import KernelParams, generate_generic
        from repro.arch import RV770

        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=8.0))
        program = compile_kernel(kernel, RV770)
        launch = LaunchConfig(domain=(256, 256), iterations=100)
        result = simulate_launch(program, RV770, launch)
        summary = result.summary()
        assert "bound=" in summary
        assert "ms/iter x 100" in summary
        assert result.seconds_per_iteration == pytest.approx(
            result.seconds / 100
        )


class TestProfileReport:
    def test_renders_stage_and_hottest_tables(self):
        with telemetry.recording() as tracer:
            with telemetry.span("outer"):
                with telemetry.span("inner", kernel="k"):
                    pass
        report = telemetry.profile_report(tracer, telemetry.metrics())
        assert "Per-stage attribution:" in report
        assert "outer" in report and "inner" in report
        assert "kernel=k" in report

    def test_empty_tracer(self):
        report = telemetry.profile_report(Tracer())
        assert "no spans recorded" in report
