"""Tests for parameter tuning: every search point is a work unit."""

import pytest

import repro.jobs.scheduler as scheduler
from repro.analysis import (
    CANDIDATE_BLOCKS,
    balance_alu_fetch,
    tune_block_size,
    tune_register_pressure,
)
from repro.arch import RV770, RV870
from repro.compiler import compile_kernel
from repro.il.types import DataType, ShaderMode
from repro.kernels import (
    KernelParams,
    KernelRecipe,
    generate_generic,
    generate_register_usage,
)
from repro.sim import LaunchConfig, SimConfig, simulate_launch
from repro.sim.counters import Bound

FETCH_HEAVY_COMPUTE = KernelRecipe(
    "generic",
    KernelParams(
        inputs=16,
        alu_fetch_ratio=0.5,
        dtype=DataType.FLOAT4,
        mode=ShaderMode.COMPUTE,
    ),
)
REGISTER_PARAMS = KernelParams(inputs=64, space=8, alu_fetch_ratio=1.0)


# ---- the direct compile + simulate loops the tuners used to run ------------

def direct_block_trials(recipe, gpu, domain=(1024, 1024)):
    program = compile_kernel(recipe.build(), gpu)
    trials = []
    for block in CANDIDATE_BLOCKS:
        launch = LaunchConfig(domain=domain, mode=ShaderMode.COMPUTE, block=block)
        result = simulate_launch(program, gpu, launch, SimConfig())
        trials.append((block, result.seconds, result.bottleneck))
    return trials


def direct_register_trials(gpu, params, steps, domain=(512, 512)):
    trials = []
    for step in steps:
        program = compile_kernel(
            generate_register_usage(params.with_(step=step)), gpu
        )
        launch = LaunchConfig(domain=domain, mode=params.mode)
        result = simulate_launch(program, gpu, launch, SimConfig())
        trials.append(
            ((step, program.gpr_count), result.seconds, result.bottleneck)
        )
    return trials


def direct_balance(gpu, params, tolerance=0.25, max_ratio=32.0):
    """The bisection over direct launches; returns (ratio, probe count)."""
    launch = LaunchConfig(domain=(1024, 1024), mode=params.mode)
    probes = []

    def bound_at(ratio):
        probes.append(ratio)
        kernel = generate_generic(params.with_(alu_fetch_ratio=ratio))
        program = compile_kernel(kernel, gpu)
        return simulate_launch(program, gpu, launch, SimConfig()).bottleneck

    low, high = tolerance, max_ratio
    assert bound_at(high) is Bound.ALU
    if bound_at(low) is Bound.ALU:
        return low, len(probes)
    while high - low > tolerance:
        mid = (low + high) / 2
        if bound_at(mid) is Bound.ALU:
            high = mid
        else:
            low = mid
    return high, len(probes)


def as_tuples(result):
    return [(t.setting, t.seconds, t.bound) for t in result.trials]


@pytest.fixture
def payload_calls(monkeypatch):
    """Count the engine's per-unit measurement calls."""
    calls = []
    run_payload = scheduler.run_payload

    def counting(unit):
        calls.append(unit)
        return run_payload(unit)

    monkeypatch.setattr(scheduler, "run_payload", counting)
    return calls


class TestSameNumbersAsDirectLaunches:
    """Engine-run trials equal the old compile + simulate loop exactly."""

    @pytest.mark.parametrize("gpu", [RV770, RV870], ids=["RV770", "RV870"])
    def test_block_size(self, gpu):
        result = tune_block_size(FETCH_HEAVY_COMPUTE, gpu)
        expected = direct_block_trials(FETCH_HEAVY_COMPUTE, gpu)
        assert as_tuples(result) == expected
        best = min(expected, key=lambda t: t[1])
        assert (result.best.setting, result.best.seconds) == best[:2]

    @pytest.mark.parametrize("gpu", [RV770, RV870], ids=["RV770", "RV870"])
    def test_register_pressure(self, gpu):
        result = tune_register_pressure(gpu, REGISTER_PARAMS)
        assert as_tuples(result) == direct_register_trials(
            gpu, REGISTER_PARAMS, steps=range(8)
        )

    def test_balance(self, payload_calls):
        params = KernelParams(inputs=16, dtype=DataType.FLOAT)
        ratio, probes = direct_balance(RV770, params)
        assert balance_alu_fetch(RV770, params) == ratio
        # one unit per bisection probe, each through the engine
        assert len(payload_calls) == probes


class TestOneUnitPerTrial:
    def test_block_size(self, payload_calls):
        result = tune_block_size(FETCH_HEAVY_COMPUTE, RV770)
        assert len(payload_calls) == len(result.trials) == len(CANDIDATE_BLOCKS)
        assert [u.block for u in payload_calls] == list(CANDIDATE_BLOCKS)

    def test_register_pressure(self, payload_calls):
        tune_register_pressure(RV770, REGISTER_PARAMS, steps=(0, 4, 7))
        assert [u.recipe.params.step for u in payload_calls] == [0, 4, 7]


class TestTuneBlockSize:
    def test_naive_64x1_is_never_best(self):
        # §IV-A: the 1-D walk wastes the 2-D cache on every chip
        for gpu in (RV770, RV870):
            result = tune_block_size(FETCH_HEAVY_COMPUTE, gpu)
            assert result.best.setting != (64, 1)
            assert result.improvement > 1.5

    def test_all_candidates_tried(self):
        result = tune_block_size(FETCH_HEAVY_COMPUTE, RV770)
        assert len(result.trials) == len(CANDIDATE_BLOCKS)
        assert {t.setting for t in result.trials} == set(CANDIDATE_BLOCKS)

    def test_pixel_kernel_rejected(self):
        pixel = KernelRecipe("generic", KernelParams(inputs=4, alu_ops=4))
        with pytest.raises(ValueError, match="compute-mode"):
            tune_block_size(pixel, RV770)

    def test_summary_text(self):
        result = tune_block_size(FETCH_HEAVY_COMPUTE, RV770)
        assert "best" in result.summary()


class TestTuneRegisterPressure:
    def test_sweet_spot_is_not_step_zero(self):
        # Figure 16: the all-up-front layout (step 0, ~64 GPRs) is the
        # slowest point of the sweep on the RV770
        result = tune_register_pressure(RV770, REGISTER_PARAMS)
        best_step, best_gprs = result.best.setting
        assert best_step > 0
        assert best_gprs < 60
        assert result.improvement > 1.5

    def test_trials_report_gprs(self):
        result = tune_register_pressure(RV770, REGISTER_PARAMS, steps=(0, 4, 7))
        gprs = [setting[1] for setting in (t.setting for t in result.trials)]
        assert gprs == sorted(gprs, reverse=True)


class TestBalanceAluFetch:
    def test_matches_figure7_knees(self):
        float_balance = balance_alu_fetch(
            RV770, KernelParams(inputs=16, dtype=DataType.FLOAT)
        )
        vec_balance = balance_alu_fetch(
            RV770, KernelParams(inputs=16, dtype=DataType.FLOAT4)
        )
        assert 1.0 <= float_balance <= 2.0  # paper ~1.25
        assert 4.5 <= vec_balance <= 6.5  # paper ~5.0

    def test_rv870_needs_more_arithmetic(self):
        rv770 = balance_alu_fetch(
            RV770, KernelParams(inputs=16, dtype=DataType.FLOAT4)
        )
        rv870 = balance_alu_fetch(
            RV870, KernelParams(inputs=16, dtype=DataType.FLOAT4)
        )
        assert rv870 > rv770  # paper: knee moves from ~5.0 to ~9.0

    def test_already_balanced_returns_floor(self):
        # a 2-input kernel is ALU-bound almost immediately
        balance = balance_alu_fetch(
            RV770,
            KernelParams(inputs=2, dtype=DataType.FLOAT),
            tolerance=0.5,
        )
        assert balance <= 2.0
