"""Tests for execution tracing, the Gantt renderer and Figure 1 topology."""

import pytest

from repro.arch import RV670, RV770, all_gpus, thread_organization
from repro.compiler import compile_kernel
from repro.kernels import KernelParams, generate_generic
from repro.sim import (
    LaunchConfig,
    Resource,
    SimConfig,
    prepare_launch,
    render_gantt,
    simulate_launch,
    trace_launch,
)


@pytest.fixture()
def traced_program():
    return compile_kernel(
        generate_generic(KernelParams(inputs=8, alu_fetch_ratio=1.0))
    )


class TestTrace:
    def test_events_cover_all_clauses(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=4
        )
        # 4 wavefronts x (1 TEX + 1 ALU + 1 EXP) clauses
        assert len(events) == 4 * len(traced_program.clauses)
        assert {e.resource for e in events} == set(Resource)

    def test_events_are_physical(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=6
        )
        for event in events:
            assert event.start >= event.ready
            assert event.end > event.start
            assert event.next_ready >= event.end
            assert event.queue_delay >= 0
            assert event.latency >= 0

    def test_resource_exclusivity(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=8
        )
        for resource in Resource:
            spans = sorted(
                (e.start, e.end)
                for e in events
                if e.resource is resource
            )
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-9  # no overlap on one resource

    def test_wavefront_clauses_in_order(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=4
        )
        for wavefront in range(4):
            own = [e for e in events if e.wavefront == wavefront]
            indices = [e.clause_index for e in own]
            assert indices == sorted(indices)
            for previous, current in zip(own, own[1:]):
                assert current.ready >= previous.next_ready - 1e-9

    def test_trace_consistent_with_simulation(self, traced_program, rv770):
        # the traced prefix ends no later than the simulated makespan
        events = trace_launch(traced_program, rv770, LaunchConfig())
        horizon = max(e.end for e in events)
        result = simulate_launch(traced_program, rv770, LaunchConfig())
        assert horizon <= result.cycles + 1e-6

    def test_trace_busy_time_matches_simulated_counters(self, rv770):
        # The trace is the one producer of clause events: for a launch
        # the simulator runs exactly, the per-resource sums over the
        # traced events are the busy cycles it reports.  The summation
        # order differs, so the sums agree to rounding, not bit for bit.
        program = compile_kernel(
            generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        )
        launch = LaunchConfig(domain=(256, 256), iterations=1)
        sim = SimConfig()
        on_simd = prepare_launch(program, rv770, launch, sim).wavefronts_per_simd
        assert on_simd <= sim.exact_threshold

        events = trace_launch(
            program, rv770, launch, sim, max_wavefronts=on_simd
        )
        counters = simulate_launch(program, rv770, launch, sim).counters
        assert counters.wavefronts_simulated == on_simd
        assert len(events) == on_simd * len(program.clauses)
        for resource in Resource:
            traced = sum(
                e.end - e.start for e in events if e.resource is resource
            )
            assert traced == pytest.approx(
                counters.busy_cycles[resource], rel=1e-9
            )


class TestGantt:
    def test_render_contains_rows_and_util(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=4
        )
        chart = render_gantt(events, width=60)
        for token in ("alu", "tex", "export", "util:", "cycles"):
            assert token in chart

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_gantt([])

    def test_markers_are_wavefront_digits(self, traced_program, rv770):
        events = trace_launch(
            traced_program, rv770, LaunchConfig(), max_wavefronts=3
        )
        chart = render_gantt(events, width=60)
        body = "\n".join(chart.split("\n")[1:4])
        assert "0" in body and "1" in body and "2" in body


class TestTopology:
    def test_rv770_figure1_facts(self):
        text = thread_organization(RV770)
        assert "16 thread processors" in text
        assert "64 threads = 16 quads (2x2)" in text
        assert "4 cycles per VLIW instruction" in text
        assert "4 texture units" in text
        assert "odd/even slots" in text
        assert "256 GPRs per thread" in text

    def test_all_chips_render(self):
        for gpu in all_gpus():
            text = thread_organization(gpu)
            assert gpu.chip in text
            assert f"{gpu.num_alus} stream cores" in text

    def test_rv670_smaller_chip(self):
        assert "4 SIMD engines" in thread_organization(RV670)
