"""Tests for kernel merging (paper §V)."""

import numpy as np
import pytest

from repro.apps import MergeError, merge_kernels, predict_merge
from repro.apps.montecarlo import montecarlo_kernel
from repro.arch import RV670, RV770, RV870
from repro.compiler import compile_kernel
from repro.il import DataType, ShaderMode
from repro.kernels import KernelParams, generate_generic
from repro.sim import LaunchConfig, SimConfig, simulate_launch
from repro.sim.counters import Bound
from repro.sim.functional import execute_kernel


def alu_heavy():
    return generate_generic(
        KernelParams(inputs=4, alu_fetch_ratio=10.0), name="alu_heavy"
    )


def fetch_heavy():
    return generate_generic(
        KernelParams(inputs=16, alu_fetch_ratio=0.25), name="fetch_heavy"
    )


class TestMergeStructure:
    def test_streams_renumbered(self):
        merged = merge_kernels(alu_heavy(), fetch_heavy())
        assert merged.num_inputs == 20
        assert merged.num_outputs == 2
        assert [d.index for d in merged.inputs] == list(range(20))
        assert [d.index for d in merged.outputs] == [0, 1]

    def test_instruction_counts_additive(self):
        a, b = alu_heavy(), fetch_heavy()
        merged = merge_kernels(a, b)
        assert merged.alu_instruction_count() == (
            a.alu_instruction_count() + b.alu_instruction_count()
        )
        assert merged.fetch_instruction_count() == (
            a.fetch_instruction_count() + b.fetch_instruction_count()
        )

    def test_merged_kernel_compiles(self):
        program = compile_kernel(merge_kernels(alu_heavy(), fetch_heavy()))
        assert program.gpr_count <= 256

    def test_stores_moved_to_end(self):
        from repro.il.instructions import ExportInstruction

        merged = merge_kernels(alu_heavy(), fetch_heavy())
        kinds = [isinstance(i, ExportInstruction) for i in merged.body]
        first_store = kinds.index(True)
        assert all(kinds[first_store:])

    def test_mode_mismatch_rejected(self):
        compute = generate_generic(
            KernelParams(inputs=4, alu_ops=4, mode=ShaderMode.COMPUTE)
        )
        with pytest.raises(MergeError, match="pixel"):
            merge_kernels(alu_heavy(), compute)

    def test_dtype_mismatch_rejected(self):
        vec = generate_generic(
            KernelParams(inputs=4, alu_ops=4, dtype=DataType.FLOAT4)
        )
        with pytest.raises(MergeError, match="float"):
            merge_kernels(alu_heavy(), vec)

    def test_color_buffer_limit(self):
        a = generate_generic(KernelParams(inputs=8, outputs=5, alu_ops=16))
        b = generate_generic(KernelParams(inputs=8, outputs=5, alu_ops=16))
        with pytest.raises(MergeError, match="color buffers"):
            merge_kernels(a, b)

    def test_global_outputs_unlimited_by_color_rule(self):
        a = montecarlo_kernel(outputs=5, batches=1)
        b = montecarlo_kernel(outputs=5, batches=1)
        merged = merge_kernels(a, b)
        assert merged.num_outputs == 10


class TestMergeSemantics:
    def test_merged_outputs_equal_individual_outputs(self):
        a = generate_generic(KernelParams(inputs=2, alu_ops=3), name="a")
        b = generate_generic(KernelParams(inputs=3, alu_ops=5), name="b")
        merged = merge_kernels(a, b)

        rng = np.random.default_rng(3)
        data = {
            i: rng.random((4, 4)).astype(np.float32) for i in range(5)
        }
        out_a = execute_kernel(a, {0: data[0], 1: data[1]}, (4, 4))
        out_b = execute_kernel(
            b, {0: data[2], 1: data[3], 2: data[4]}, (4, 4)
        )
        out_m = execute_kernel(merged, data, (4, 4))
        assert np.allclose(out_m[0], out_a[0])
        assert np.allclose(out_m[1], out_b[0])


class TestMergePrediction:
    @pytest.mark.parametrize(
        "gpu", [RV670, RV770, RV870], ids=["RV670", "RV770", "RV870"]
    )
    def test_cal_timing_equals_direct_launches(self, gpu):
        # CAL-timed (binding and mode checks included), yet the same
        # numbers as compiling and simulating each kernel directly
        a, b = alu_heavy(), fetch_heavy()
        report = predict_merge(a, b, gpu)
        direct = [
            simulate_launch(
                compile_kernel(kernel, gpu), gpu, LaunchConfig(), SimConfig()
            )
            for kernel in (a, b, merge_kernels(a, b))
        ]
        assert (report.seconds_a, report.seconds_b, report.seconds_merged) == (
            tuple(result.seconds for result in direct)
        )
        assert (report.bound_a, report.bound_b, report.bound_merged) == (
            tuple(result.bottleneck for result in direct)
        )
        merged = report.merged_result
        assert (merged.launch, merged.cycles, merged.counters) == (
            direct[2].launch,
            direct[2].cycles,
            direct[2].counters,
        )

    def test_alu_plus_fetch_merge_wins(self):
        # the paper's headline §V claim: complementary bottlenecks merge
        # into a faster combined kernel
        report = predict_merge(alu_heavy(), fetch_heavy(), RV770)
        assert report.bound_a is Bound.ALU
        assert report.bound_b is Bound.FETCH
        assert report.speedup > 1.2
        assert report.seconds_merged < report.seconds_separate

    def test_same_bottleneck_merge_is_neutral(self):
        a = generate_generic(
            KernelParams(inputs=4, alu_fetch_ratio=10.0), name="a"
        )
        b = generate_generic(
            KernelParams(inputs=4, alu_fetch_ratio=10.0), name="b"
        )
        report = predict_merge(a, b, RV770)
        # two ALU-bound kernels share one ALU: no win, little loss
        assert report.speedup == pytest.approx(1.0, abs=0.15)

    def test_summary_text(self):
        report = predict_merge(alu_heavy(), fetch_heavy(), RV770)
        assert "merged" in report.summary()
        assert "x" in report.summary()
