"""Tests for knee detection, linear fits, boundedness and the model."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import (
    find_knee,
    linear_fit,
    predict_launch_seconds,
    slope_ratio,
)
from repro.arch import RV770, RV870
from repro.compiler import compile_kernel
from repro.il.types import DataType
from repro.kernels import KernelParams, generate_generic
from repro.sim import LaunchConfig, simulate_launch
from repro.sim.counters import Bound


class TestKneeDetection:
    def test_plateau_then_rise(self):
        xs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        ys = [5.0, 5.0, 5.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        analysis = find_knee(xs, ys)
        assert analysis.knee_x == 2.5
        assert analysis.plateau_seconds == 5.0
        assert analysis.rise_slope == pytest.approx(2.0)

    def test_flat_curve_has_no_knee(self):
        xs = list(range(10))
        ys = [3.0] * 10
        analysis = find_knee(xs, ys)
        assert not analysis.has_knee
        assert analysis.rise_slope == 0.0

    def test_unsorted_input_handled(self):
        xs = [4.0, 1.0, 3.0, 2.0, 5.0]
        ys = [9.0, 5.0, 5.0, 5.0, 11.0]
        assert find_knee(xs, ys).knee_x == 4.0

    def test_noise_below_tolerance_ignored(self):
        xs = list(range(8))
        ys = [5.0, 5.1, 4.95, 5.08, 5.02, 5.1, 5.05, 5.0]
        assert not find_knee(xs, ys, tolerance=0.05).has_knee

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            find_knee([1, 2], [1, 2])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            find_knee([1, 2, 3], [1, 2])

    @settings(max_examples=30, deadline=None)
    @given(
        knee_at=st.integers(min_value=3, max_value=15),
        plateau=st.floats(1.0, 50.0),
        slope=st.floats(0.5, 10.0),
    )
    def test_synthetic_knees_found(self, knee_at, plateau, slope):
        # the rise must clear the 5% detection band within the sweep
        assume(slope * (20 - knee_at) > plateau * 0.07)
        xs = [float(i) for i in range(20)]
        ys = [
            plateau if i < knee_at else plateau + slope * (i - knee_at + 1)
            for i in range(20)
        ]
        analysis = find_knee(xs, ys)
        assert analysis.has_knee
        # shallow slopes take longer to clear the 5% tolerance band
        detection_lag = math.ceil(plateau * 0.05 / slope) + 1
        assert knee_at <= analysis.knee_x <= knee_at + detection_lag


class TestLinearFit:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        fit = linear_fit(xs, [2 * x + 1 for x in xs])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.is_linear
        assert fit.predict(10.0) == pytest.approx(21.0)

    def test_constant_line(self):
        fit = linear_fit([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_nonlinear_detected(self):
        xs = list(range(10))
        fit = linear_fit(xs, [x**3 for x in xs])
        assert not fit.is_linear

    def test_slope_ratio(self):
        xs = [1.0, 2.0, 3.0]
        assert slope_ratio(xs, [4 * x for x in xs], xs, [x for x in xs]) == (
            pytest.approx(4.0)
        )

    def test_slope_ratio_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            slope_ratio([1, 2], [1, 2], [1, 2], [3, 3])


class TestPerformanceModel:
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0, 8.0])
    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.FLOAT4])
    def test_model_tracks_simulation(self, ratio, dtype):
        program = compile_kernel(
            generate_generic(
                KernelParams(inputs=16, alu_fetch_ratio=ratio, dtype=dtype)
            )
        )
        launch = LaunchConfig()
        simulated = simulate_launch(program, RV770, launch)
        predicted = predict_launch_seconds(program, RV770, launch)
        assert predicted.seconds == pytest.approx(
            simulated.seconds, rel=0.15
        )

    def test_model_bound_agrees_when_saturated(self):
        program = compile_kernel(
            generate_generic(KernelParams(inputs=8, alu_fetch_ratio=10.0))
        )
        predicted = predict_launch_seconds(program, RV770)
        simulated = simulate_launch(program, RV770)
        assert predicted.bound is Bound.ALU
        assert simulated.bottleneck is Bound.ALU

    def test_latency_regime(self):
        # huge GPR usage -> few residents -> latency-dominated
        program = compile_kernel(
            generate_generic(KernelParams(inputs=120, alu_fetch_ratio=0.25))
        )
        predicted = predict_launch_seconds(program, RV870)
        assert predicted.resident_wavefronts <= 2
        assert predicted.serial_span > 0

    def test_model_is_cheap_and_deterministic(self):
        program = compile_kernel(generate_generic(KernelParams()))
        a = predict_launch_seconds(program, RV770)
        b = predict_launch_seconds(program, RV770)
        assert a.seconds == b.seconds
