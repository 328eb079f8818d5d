"""Tests for the paper's kernel generators (Figures 3, 5, 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.il import DataType, MemorySpace, ShaderMode
from repro.kernels import (
    KernelParams,
    alu_ops_for_ratio,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.kernels.register_usage import plan_blocks


class TestAluOpsForRatio:
    def test_paper_example(self):
        # "if this micro-benchmark is given 2 inputs and an ALU:Fetch ratio
        # of 2.0, then it will generate 16 ALU operations (2*4*2.0)" (§III-A)
        assert alu_ops_for_ratio(2, 2.0) == 16

    def test_ska_convention(self):
        # 16 ALU ops and 4 fetches is a reported ratio of 1.0 (§III-A)
        assert alu_ops_for_ratio(4, 1.0) == 16

    def test_floor_at_chain_minimum(self):
        # every input must be consumed: at least inputs-1 additions
        assert alu_ops_for_ratio(16, 0.01) == 15

    def test_rejects_single_input(self):
        with pytest.raises(ValueError):
            alu_ops_for_ratio(1, 1.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            alu_ops_for_ratio(4, 0.0)


class TestKernelParams:
    def test_defaults_are_valid(self):
        params = KernelParams()
        assert params.inputs == 8
        assert params.total_alu_ops == 32

    def test_resolved_output_space_by_mode(self):
        assert (
            KernelParams(mode=ShaderMode.PIXEL).resolved_output_space
            is MemorySpace.COLOR_BUFFER
        )
        assert (
            KernelParams(mode=ShaderMode.COMPUTE).resolved_output_space
            is MemorySpace.GLOBAL
        )

    def test_explicit_output_space_wins(self):
        params = KernelParams(output_space=MemorySpace.GLOBAL)
        assert params.resolved_output_space is MemorySpace.GLOBAL

    def test_space_step_must_leave_initial_inputs(self):
        with pytest.raises(ValueError, match="space\\*step"):
            KernelParams(inputs=64, space=8, step=8)

    def test_alu_ops_override(self):
        assert KernelParams(inputs=8, alu_ops=100).total_alu_ops == 100

    def test_alu_ops_override_floored(self):
        assert KernelParams(inputs=8, alu_ops=1).total_alu_ops == 7

    def test_with_changes(self):
        params = KernelParams().with_(inputs=16)
        assert params.inputs == 16
        assert params.outputs == 1

    @pytest.mark.parametrize("field, value", [
        ("inputs", 1), ("outputs", 0), ("constants", -1),
        ("alu_fetch_ratio", -1.0), ("space", 0), ("step", -1),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            KernelParams(**{field: value})


class TestGenericGenerator:
    def test_counts_match_params(self):
        params = KernelParams(inputs=16, outputs=1, alu_fetch_ratio=2.0)
        kernel = generate_generic(params)
        assert kernel.fetch_instruction_count() == 16
        assert kernel.alu_instruction_count() == 128  # 16*4*2.0
        assert kernel.store_instruction_count() == 1

    def test_alu_count_independent_of_dtype(self):
        # "the number of ALU instructions is not dependent on data type"
        float_kernel = generate_generic(KernelParams(dtype=DataType.FLOAT))
        vec_kernel = generate_generic(KernelParams(dtype=DataType.FLOAT4))
        assert (
            float_kernel.alu_instruction_count()
            == vec_kernel.alu_instruction_count()
        )

    def test_every_input_sampled_once(self):
        # "no input is used more than once" (§III)
        from repro.il.instructions import SampleInstruction

        kernel = generate_generic(KernelParams(inputs=12))
        resources = [
            i.resource
            for i in kernel.body
            if isinstance(i, SampleInstruction)
        ]
        assert sorted(resources) == list(range(12))

    def test_multiple_outputs_read_distinct_values(self):
        from repro.il.instructions import ExportInstruction

        kernel = generate_generic(KernelParams(inputs=8, outputs=4))
        sources = [
            i.source.register
            for i in kernel.body
            if isinstance(i, ExportInstruction)
        ]
        assert len(set(sources)) == 4

    def test_global_spaces(self):
        params = KernelParams(
            input_space=MemorySpace.GLOBAL, output_space=MemorySpace.GLOBAL
        )
        kernel = generate_generic(params)
        assert kernel.input_space() is MemorySpace.GLOBAL
        assert kernel.output_space() is MemorySpace.GLOBAL

    def test_constants_are_used(self):
        kernel = generate_generic(KernelParams(inputs=4, constants=2))
        text_ops = [str(i) for i in kernel.body]
        assert any("cb0[0]" in t for t in text_ops)
        assert any("cb0[1]" in t for t in text_ops)

    def test_too_many_outputs_rejected(self):
        with pytest.raises(ValueError, match="outputs"):
            generate_generic(KernelParams(inputs=2, outputs=8, alu_ops=2))

    @settings(max_examples=30, deadline=None)
    @given(
        inputs=st.integers(min_value=2, max_value=32),
        ratio=st.floats(min_value=0.25, max_value=8.0),
        outputs=st.integers(min_value=1, max_value=4),
    )
    def test_generated_kernels_always_validate(self, inputs, ratio, outputs):
        params = KernelParams(
            inputs=inputs, outputs=outputs, alu_fetch_ratio=ratio
        )
        if outputs > params.total_alu_ops:
            # Too few chain values for the outputs: rejected, never built.
            with pytest.raises(ValueError, match="outputs"):
                generate_generic(params)
            return
        kernel = generate_generic(params)  # build() validates
        assert kernel.alu_instruction_count() == params.total_alu_ops


class TestPlanBlocks:
    def test_totals_preserved(self):
        params = KernelParams(inputs=64, space=8, step=4, alu_fetch_ratio=1.0)
        budgets = plan_blocks(params)
        assert sum(budgets) == params.total_alu_ops
        assert len(budgets) == 5

    def test_minimum_consumption_respected(self):
        params = KernelParams(inputs=64, space=8, step=6, alu_fetch_ratio=1.0)
        budgets = plan_blocks(params)
        assert budgets[0] >= 64 - 48 - 1
        assert all(b >= 8 for b in budgets[1:])

    def test_minimal_budget_exactly_fits(self):
        # the inputs-1 floor on the ALU budget is precisely the blocks'
        # minimum consumption, so the minimal kernel is always plannable
        params = KernelParams(inputs=64, space=8, step=7, alu_ops=1)
        budgets = plan_blocks(params)
        assert sum(budgets) == 63
        assert budgets == [7] + [8] * 7


class TestRegisterUsageGenerator:
    def test_step_zero_equals_up_front_sampling(self):
        from repro.il.instructions import SampleInstruction

        params = KernelParams(inputs=64, space=8, step=0, alu_fetch_ratio=1.0)
        kernel = generate_register_usage(params)
        first_64 = kernel.body[:64]
        assert all(isinstance(i, SampleInstruction) for i in first_64)

    def test_sampling_interleaved_for_positive_step(self):
        from repro.il.instructions import ALUInstruction, SampleInstruction

        params = KernelParams(inputs=64, space=8, step=4, alu_fetch_ratio=1.0)
        kernel = generate_register_usage(params)
        kinds = [
            "S" if isinstance(i, SampleInstruction) else
            "A" if isinstance(i, ALUInstruction) else "O"
            for i in kernel.body
        ]
        pattern = "".join(kinds)
        # late TEX groups appear after ALU work has begun
        assert "AS" in pattern

    def test_work_constant_across_steps(self):
        # Sweeping step changes only register pressure: identical input,
        # output and ALU-op counts (§III-E).
        kernels = [
            generate_register_usage(
                KernelParams(inputs=64, space=8, step=s, alu_fetch_ratio=1.0)
            )
            for s in range(8)
        ]
        assert len({k.alu_instruction_count() for k in kernels}) == 1
        assert len({k.fetch_instruction_count() for k in kernels}) == 1

    @settings(max_examples=20, deadline=None)
    @given(step=st.integers(min_value=0, max_value=7))
    def test_every_input_fetched_exactly_once(self, step):
        from repro.il.instructions import SampleInstruction

        params = KernelParams(
            inputs=64, space=8, step=step, alu_fetch_ratio=1.0
        )
        kernel = generate_register_usage(params)
        resources = [
            i.resource
            for i in kernel.body
            if isinstance(i, SampleInstruction)
        ]
        assert sorted(resources) == list(range(64))


class TestClauseUsageGenerator:
    def test_all_sampling_up_front(self):
        from repro.il.instructions import SampleInstruction

        params = KernelParams(inputs=64, space=8, step=5, alu_fetch_ratio=1.0)
        kernel = generate_clause_usage(params)
        assert all(
            isinstance(i, SampleInstruction) for i in kernel.body[:64]
        )
        assert not any(
            isinstance(i, SampleInstruction) for i in kernel.body[64:]
        )

    def test_same_work_as_register_usage(self):
        params = KernelParams(inputs=64, space=8, step=5, alu_fetch_ratio=1.0)
        control = generate_clause_usage(params)
        variable = generate_register_usage(params)
        assert (
            control.alu_instruction_count()
            == variable.alu_instruction_count()
        )
        assert (
            control.fetch_instruction_count()
            == variable.fetch_instruction_count()
        )
