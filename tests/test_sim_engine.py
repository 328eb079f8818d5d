"""Tests for the SIMD event loop, scheduler, engine and counters."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import predict_launch_seconds
from repro.arch import RV670, RV770, RV870
from repro.compiler import compile_kernel
from repro.il.types import ShaderMode
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.sim import Counters, LaunchConfig, Resource, SimConfig, simulate_launch
from repro.sim.counters import Bound
from repro.sim.engine import SimulationError
from repro.sim.scheduler import resident_wavefronts
from repro.sim.prepare import prepare_launch
from repro.sim.simd import _run_event_loop, simulate_simd
from repro.sim.trace import TraceEvent, trace_launch
from repro.sim.wavefront import ClauseCost, WavefrontProgram


def program_of(*clauses: ClauseCost) -> WavefrontProgram:
    return WavefrontProgram(
        clauses=tuple(clauses), texture_hit_rate=None, texture_overfetch=None
    )


def cost(resource=Resource.ALU, occupancy=10.0, latency=0.0) -> ClauseCost:
    return ClauseCost(resource, occupancy, latency)


class TestEventLoop:
    def test_single_wavefront_serial_time(self):
        program = program_of(
            cost(Resource.TEX, 16, 100), cost(Resource.ALU, 64, 0)
        )
        result = simulate_simd(program, resident=1, total=1)
        assert result.makespan_cycles == pytest.approx(16 + 100 + 64)

    def test_two_wavefronts_hide_latency(self):
        program = program_of(
            cost(Resource.TEX, 16, 100), cost(Resource.ALU, 64, 0)
        )
        serial = simulate_simd(program, resident=1, total=2).makespan_cycles
        hidden = simulate_simd(program, resident=2, total=2).makespan_cycles
        assert hidden < serial

    def test_throughput_bound_by_busiest_resource(self):
        # ALU needs 100 cycles per wavefront; with many resident wavefronts
        # the makespan approaches total * 100.
        program = program_of(
            cost(Resource.TEX, 10, 0), cost(Resource.ALU, 100, 0)
        )
        result = simulate_simd(program, resident=8, total=50)
        assert result.makespan_cycles == pytest.approx(50 * 100, rel=0.05)

    def test_busy_cycles_accounted(self):
        program = program_of(
            cost(Resource.TEX, 10, 0), cost(Resource.ALU, 100, 0)
        )
        result = simulate_simd(program, resident=4, total=10)
        assert result.busy_cycles[Resource.TEX] == pytest.approx(100)
        assert result.busy_cycles[Resource.ALU] == pytest.approx(1000)

    def test_extrapolation_close_to_exact(self):
        program = program_of(
            cost(Resource.TEX, 16, 300),
            cost(Resource.ALU, 40, 0),
            cost(Resource.EXPORT, 8, 90),
        )
        exact = simulate_simd(
            program, resident=8, total=500, sim=SimConfig(exact_threshold=1000)
        )
        approx = simulate_simd(
            program,
            resident=8,
            total=500,
            sim=SimConfig(exact_threshold=64, max_simulated_wavefronts=128),
        )
        assert approx.makespan_cycles == pytest.approx(
            exact.makespan_cycles, rel=0.05
        )
        assert approx.wavefronts_simulated < exact.wavefronts_simulated

    def test_invalid_counts_rejected(self):
        program = program_of(cost())
        with pytest.raises(ValueError):
            simulate_simd(program, resident=0, total=5)
        with pytest.raises(ValueError):
            simulate_simd(program, resident=4, total=0)

    @settings(max_examples=30, deadline=None)
    @given(
        resident=st.integers(min_value=1, max_value=16),
        total=st.integers(min_value=1, max_value=120),
        occ=st.floats(min_value=1.0, max_value=200.0),
        lat=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_makespan_lower_bounds(self, resident, total, occ, lat):
        """Makespan can never beat resource occupancy or one serial pass."""
        program = program_of(
            cost(Resource.TEX, occ, lat), cost(Resource.ALU, occ, 0)
        )
        result = simulate_simd(program, resident, total)
        assert result.makespan_cycles >= total * occ * 0.999  # ALU bound
        assert result.makespan_cycles >= (2 * occ + lat) * 0.999  # one pass

    @settings(max_examples=20, deadline=None)
    @given(resident=st.integers(min_value=1, max_value=31))
    def test_more_residents_never_slower(self, resident):
        program = program_of(
            cost(Resource.TEX, 16, 400), cost(Resource.ALU, 30, 0)
        )
        fewer = simulate_simd(program, resident, total=64).makespan_cycles
        more = simulate_simd(program, resident + 1, total=64).makespan_cycles
        assert more <= fewer * 1.001


def reference_event_loop(program, resident, count, record):
    """The event loop as first written: one pop and one push per event.

    Kept as the reference for :func:`_run_event_loop`, which replaces the
    popped heap entry in place.
    """
    clauses = program.clauses
    busy = {r: 0.0 for r in Resource}
    free = {r: 0.0 for r in Resource}
    last = len(clauses) - 1
    completions: list[float] = []
    initial = min(resident, count)
    heap = [(0.0, index, 0) for index in range(initial)]
    heapq.heapify(heap)
    admitted = initial
    while heap:
        ready, order, clause_index = heapq.heappop(heap)
        clause = clauses[clause_index]
        start = max(ready, free[clause.resource])
        end = start + clause.occupancy
        free[clause.resource] = end
        busy[clause.resource] += clause.occupancy
        next_ready = end + clause.latency
        record.append(
            TraceEvent(
                wavefront=order,
                clause_index=clause_index,
                resource=clause.resource,
                ready=ready,
                start=start,
                end=end,
                next_ready=next_ready,
            )
        )
        if clause_index < last:
            heapq.heappush(heap, (next_ready, order, clause_index + 1))
        else:
            completions.append(next_ready)
            if admitted < count:
                heapq.heappush(heap, (next_ready, admitted, 0))
                admitted += 1
    completions.sort()
    return completions[-1], busy, completions


def assert_loops_agree(program, resident, count):
    expected_events: list[TraceEvent] = []
    expected = reference_event_loop(program, resident, count, expected_events)
    events: list[TraceEvent] = []
    assert _run_event_loop(program, resident, count, record=events) == expected
    assert events == expected_events
    assert _run_event_loop(program, resident, count) == expected


GENERATOR_KERNELS = {
    "generic": lambda: generate_generic(
        KernelParams(inputs=8, alu_fetch_ratio=2.0)
    ),
    "clause": lambda: generate_clause_usage(
        KernelParams(inputs=8, alu_fetch_ratio=4.0, space=2)
    ),
    "register": lambda: generate_register_usage(
        KernelParams(inputs=64, space=8, step=4)
    ),
}


def cycles(low: int, high: int):
    """Clause cycle counts: whole numbers from ``low`` to ``high``, or
    thirds and sevenths up to about ``high``."""
    return st.one_of(
        st.integers(low, high).map(float),
        st.builds(
            lambda n, d: n / d,
            st.integers(max(low, 1), 3 * high),
            st.sampled_from([3, 7]),
        ),
    )


class TestEventLoopMatchesReference:
    @pytest.mark.parametrize("gpu", [RV670, RV770, RV870], ids=lambda g: g.chip)
    @pytest.mark.parametrize("generator", sorted(GENERATOR_KERNELS))
    def test_generator_programs(self, generator, gpu):
        program = compile_kernel(GENERATOR_KERNELS[generator](), gpu)
        prep = prepare_launch(program, gpu, LaunchConfig(), SimConfig())
        resident = prep.resident_wavefronts
        wavefronts = prep.wavefront_program
        assert_loops_agree(wavefronts, resident, 3 * resident + 1)
        assert_loops_agree(wavefronts, resident, resident)
        assert_loops_agree(wavefronts, resident + 2, resident)
        assert_loops_agree(wavefronts, resident, 1)
        assert_loops_agree(wavefronts, 1, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(list(Resource)),
                cycles(1, 4),
                cycles(0, 6),
            ),
            min_size=1,
            max_size=5,
        ),
        resident=st.integers(1, 6),
        count=st.integers(1, 20),
    )
    def test_random_programs_with_tied_ready_times(
        self, steps, resident, count
    ):
        # Small integer costs make many wavefronts ready at once, so the
        # admission order breaks most ties.  Thirds and sevenths are not
        # dyadic (texture costs are not either): their sums round, so a
        # loop that added them in another order reads other bits.
        program = program_of(*(cost(r, occ, lat) for r, occ, lat in steps))
        assert_loops_agree(program, resident, count)


class TestScheduler:
    def test_gpr_limits_residency(self, rv770):
        program = compile_kernel(
            generate_generic(KernelParams(inputs=64, space=8, alu_fetch_ratio=1.0))
        )
        assert program.gpr_count >= 60
        assert resident_wavefronts(program, rv770, 1000) <= 4

    def test_ablation_gives_hardware_max(self, rv770):
        program = compile_kernel(
            generate_generic(KernelParams(inputs=64, alu_fetch_ratio=1.0))
        )
        sim = SimConfig(gpr_limited_residency=False)
        assert (
            resident_wavefronts(program, rv770, 1000, sim)
            == rv770.max_wavefronts_per_simd
        )

    def test_launch_supply_clamps(self, rv770, simple_program):
        assert resident_wavefronts(simple_program, rv770, 3) == 3


class TestCounters:
    def test_bottleneck_saturated_resource(self):
        counters = Counters(
            makespan_cycles=1000,
            busy_cycles={Resource.ALU: 900, Resource.TEX: 100, Resource.EXPORT: 10},
            wavefronts_simulated=10,
            wavefronts_total=10,
            resident_wavefronts=4,
        )
        assert counters.bottleneck() is Bound.ALU
        assert counters.utilization(Resource.ALU) == pytest.approx(0.9)

    def test_bottleneck_latency_when_idle(self):
        counters = Counters(
            makespan_cycles=1000,
            busy_cycles={Resource.ALU: 100, Resource.TEX: 200, Resource.EXPORT: 10},
            wavefronts_simulated=10,
            wavefronts_total=10,
            resident_wavefronts=1,
        )
        assert counters.bottleneck() is Bound.LATENCY

    def test_write_bound_classification(self):
        counters = Counters(
            makespan_cycles=1000,
            busy_cycles={Resource.ALU: 10, Resource.TEX: 100, Resource.EXPORT: 950},
            wavefronts_simulated=10,
            wavefronts_total=10,
            resident_wavefronts=8,
        )
        assert counters.bottleneck() is Bound.WRITE

    def test_summary_contains_bound(self):
        counters = Counters(
            makespan_cycles=100,
            busy_cycles={r: 90.0 for r in Resource},
            wavefronts_simulated=1,
            wavefronts_total=1,
            resident_wavefronts=1,
        )
        assert "bound=" in counters.summary()


class TestEngine:
    def test_mode_mismatch_rejected(self, rv770, simple_program):
        with pytest.raises(SimulationError, match="cannot"):
            simulate_launch(
                simple_program,
                rv770,
                LaunchConfig(mode=ShaderMode.COMPUTE),
            )

    def test_rv670_compute_rejected(self, rv670):
        program = compile_kernel(
            generate_generic(KernelParams(mode=ShaderMode.COMPUTE))
        )
        with pytest.raises(SimulationError, match="compute shader"):
            simulate_launch(
                program, rv670, LaunchConfig(mode=ShaderMode.COMPUTE)
            )

    @pytest.mark.parametrize(
        "launcher", [trace_launch, predict_launch_seconds],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "kernel_mode, gpu, match",
        [
            (ShaderMode.PIXEL, RV770, "cannot"),
            (ShaderMode.COMPUTE, RV670, "compute shader"),
        ],
        ids=["pixel-program-compute-launch", "rv670-compute"],
    )
    def test_tracer_and_model_reject_what_simulation_rejects(
        self, launcher, kernel_mode, gpu, match
    ):
        # The checks live in prepare_launch, so the tracer and the
        # closed-form model refuse the launches simulate_launch refuses
        # (the two tests above).
        program = compile_kernel(
            generate_generic(KernelParams(mode=kernel_mode))
        )
        with pytest.raises(SimulationError, match=match):
            launcher(program, gpu, LaunchConfig(mode=ShaderMode.COMPUTE))

    def test_seconds_scale_with_iterations(self, rv770, simple_program):
        one = simulate_launch(
            simple_program, rv770, LaunchConfig(iterations=1)
        )
        many = simulate_launch(
            simple_program, rv770, LaunchConfig(iterations=5000)
        )
        assert many.seconds == pytest.approx(one.seconds * 5000)
        assert many.seconds_per_iteration == pytest.approx(one.seconds)

    def test_deterministic(self, rv770, simple_program):
        a = simulate_launch(simple_program, rv770, LaunchConfig())
        b = simulate_launch(simple_program, rv770, LaunchConfig())
        assert a.seconds == b.seconds

    def test_alu_bound_time_first_principles(self, rv770):
        # 8 inputs, ratio 10 -> 320 dependent ops -> 1280 cycles/wavefront;
        # 16384 wavefronts over 10 SIMDs at 750 MHz, 5000 iterations.
        program = compile_kernel(
            generate_generic(KernelParams(inputs=8, alu_fetch_ratio=10.0))
        )
        result = simulate_launch(program, rv770, LaunchConfig())
        expected = (16384 / 10) * 320 * 4 / 750e6 * 5000
        assert result.seconds == pytest.approx(expected, rel=0.10)
        assert result.bottleneck is Bound.ALU

    def test_generation_scaling_alu_bound(self):
        program = {
            gpu: compile_kernel(
                generate_generic(KernelParams(inputs=8, alu_fetch_ratio=10.0))
            )
            for gpu in (RV670, RV770, RV870)
        }
        seconds = {
            gpu.chip: simulate_launch(program[gpu], gpu, LaunchConfig()).seconds
            for gpu in (RV670, RV770, RV870)
        }
        # 2.5x ALUs 670->770, 2x (plus clock) 770->870
        assert seconds["RV670"] / seconds["RV770"] == pytest.approx(2.5, rel=0.1)
        assert seconds["RV770"] / seconds["RV870"] == pytest.approx(
            2 * 850 / 750, rel=0.1
        )

    def test_odd_even_slot_penalty(self, rv770):
        # ALU-heavy kernel with huge GPR use -> 1 resident wavefront
        program = compile_kernel(
            generate_generic(
                KernelParams(inputs=130, alu_fetch_ratio=16.0)
            )
        )
        with_penalty = simulate_launch(
            program, rv770, LaunchConfig(iterations=1)
        )
        without = simulate_launch(
            program,
            rv770,
            LaunchConfig(iterations=1),
            SimConfig(odd_even_slots=False),
        )
        assert with_penalty.counters.resident_wavefronts == 1
        assert with_penalty.seconds > without.seconds * 1.5

    def test_counters_population(self, rv770, simple_program):
        result = simulate_launch(simple_program, rv770, LaunchConfig())
        assert result.counters.wavefronts_total == 16384
        assert result.counters.texture_hit_rate is not None
        assert result.counters.texture_overfetch is not None
        assert "bound=" in result.summary()
