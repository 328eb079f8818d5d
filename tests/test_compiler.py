"""Tests for the IL->ISA compiler: DCE, clauses, VLIW packing, regalloc."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import RV770
from repro.compiler import CompileOptions, compile_kernel
from repro.compiler.defuse import build_defuse
from repro.compiler.optimize import eliminate_dead_code
from repro.compiler.vliw import pack_bundles
from repro.il import DataType, ILBuilder, ShaderMode
from repro.il.instructions import ALUInstruction, operand, temp
from repro.il.opcodes import ILOp
from repro.isa import ALUClause, ExportClause, TEXClause, ValueLocation
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)


def alu(op, dest, *srcs):
    return ALUInstruction(op, temp(dest), tuple(operand(temp(s)) for s in srcs))


def pack(instrs):
    """Pack a list of ALU instructions as a body of its own."""
    return pack_bundles(instrs, build_defuse(tuple(instrs)), 0)


def dce(kernel):
    return eliminate_dead_code(kernel, build_defuse(kernel.body))


class TestDeadCodeElimination:
    def test_generated_kernels_have_no_dead_code(self):
        kernel = generate_generic(KernelParams(inputs=8, alu_fetch_ratio=2.0))
        assert dce(kernel)[1] == 0

    def test_dead_arithmetic_removed(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        a = builder.declare_input()
        b = builder.declare_input()
        out = builder.declare_output()
        va = builder.sample(a)
        vb = builder.sample(b)
        live = builder.add(va, vb)
        builder.add(live, live)  # dead: result unused
        builder.store(out, live)
        kernel = builder.build()
        smaller, removed = dce(kernel)
        assert removed == 1
        assert smaller.alu_instruction_count() == 1


class TestVLIWPacking:
    def test_dependent_chain_packs_one_per_bundle(self):
        # r1=r0+r0; r2=r1+r1; r3=r2+r2 — fully serial
        instrs = [alu(ILOp.ADD, 1, 0, 0), alu(ILOp.ADD, 2, 1, 1), alu(ILOp.ADD, 3, 2, 2)]
        bundles = pack(instrs)
        assert len(bundles) == len(instrs)

    def test_independent_ops_pack_wide(self):
        instrs = [alu(ILOp.ADD, i + 10, 0, 1) for i in range(5)]
        bundles = pack(instrs)
        assert len(bundles) == 1
        assert bundles[0][4][0] == "t"  # fifth basic op rides the t core

    def test_rewriting_a_register_another_slot_reads_packs_together(self):
        # r2 is read, then rewritten: the reader gets the old value (all
        # slots read before any writes), so the two share a bundle.
        instrs = [alu(ILOp.ADD, 3, 2, 1), alu(ILOp.ADD, 2, 0, 1), alu(ILOp.ADD, 4, 2, 3)]
        assert [len(bundle) for bundle in pack(instrs)] == [2, 1]

    def test_six_independent_ops_need_two_bundles(self):
        instrs = [alu(ILOp.ADD, i + 10, 0, 1) for i in range(6)]
        assert len(pack(instrs)) == 2

    def test_transcendental_forces_t_slot(self):
        instrs = [
            ALUInstruction(ILOp.SIN, temp(10), (operand(temp(0)),)),
        ]
        bundles = pack(instrs)
        assert bundles[0][0][0] == "t"

    def test_two_transcendentals_split(self):
        instrs = [
            ALUInstruction(ILOp.SIN, temp(10), (operand(temp(0)),)),
            ALUInstruction(ILOp.COS, temp(11), (operand(temp(0)),)),
        ]
        assert len(pack(instrs)) == 2

    def test_slot_letters_unique_per_bundle(self):
        instrs = [alu(ILOp.ADD, i + 10, 0, 1) for i in range(5)]
        bundles = pack(instrs)
        slots = [slot for slot, _ in bundles[0]]
        assert sorted(slots) == sorted(set(slots))


class TestClauseStructure:
    def test_fig2_shape(self):
        # 3 inputs, 3 ALU ops, 1 export: TEX, ALU, EXP — paper Figure 2
        kernel = generate_generic(
            KernelParams(inputs=3, alu_ops=3, dtype=DataType.FLOAT4)
        )
        program = compile_kernel(kernel)
        kinds = [type(c).__name__ for c in program.clauses]
        assert kinds == ["TEXClause", "ALUClause", "ExportClause"]

    def test_tex_clauses_chunked_at_limit(self):
        kernel = generate_generic(KernelParams(inputs=17, alu_fetch_ratio=0.25))
        program = compile_kernel(kernel)
        tex = list(program.tex_clauses())
        assert [c.count for c in tex] == [8, 8, 1]

    def test_alu_clauses_chunked_at_limit(self):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=300))
        program = compile_kernel(kernel)
        assert [c.count for c in program.alu_clauses()] == [128, 128, 44]

    def test_register_usage_kernel_interleaves_clauses(self):
        params = KernelParams(inputs=64, space=8, step=4, alu_fetch_ratio=1.0)
        program = compile_kernel(generate_register_usage(params))
        kinds = [type(c).__name__ for c in program.clauses]
        # initial TEX clauses, then alternating ALU/TEX groups, final EXP
        assert kinds[0] == "TEXClause"
        assert kinds[-1] == "ExportClause"
        tex_after_alu = any(
            isinstance(program.clauses[i], ALUClause)
            and isinstance(program.clauses[i + 1], TEXClause)
            for i in range(len(program.clauses) - 1)
        )
        assert tex_after_alu

    def test_program_ends_with_export(self):
        kernel = generate_generic(KernelParams())
        program = compile_kernel(kernel)
        assert isinstance(program.clauses[-1], ExportClause)

    def test_custom_clause_limits(self):
        kernel = generate_generic(KernelParams(inputs=8, alu_fetch_ratio=0.25))
        program = compile_kernel(
            kernel, options=CompileOptions(max_tex_per_clause=4)
        )
        assert [c.count for c in program.tex_clauses()] == [4, 4]


class TestRegisterAllocation:
    def test_gprs_track_inputs(self):
        # inputs sampled up front stay live until consumed: GPRs ~ inputs
        for inputs in (4, 8, 16, 32):
            kernel = generate_generic(
                KernelParams(inputs=inputs, alu_fetch_ratio=1.0)
            )
            program = compile_kernel(kernel)
            assert inputs <= program.gpr_count <= inputs + 3

    def test_register_usage_sweep_matches_paper_ladder(self):
        # the paper's Figure 16 x axis: 64, 57, 49, 41, 33, 25, 17, 10
        gprs = []
        for step in range(8):
            params = KernelParams(
                inputs=64, space=8, step=step, alu_fetch_ratio=1.0
            )
            program = compile_kernel(generate_register_usage(params))
            gprs.append(program.gpr_count)
        assert gprs == sorted(gprs, reverse=True)
        paper = [64, 57, 49, 41, 33, 25, 17, 10]
        for ours, theirs in zip(gprs, paper):
            assert abs(ours - theirs) <= 2

    def test_clause_usage_control_has_constant_gprs(self):
        counts = {
            compile_kernel(
                generate_clause_usage(
                    KernelParams(
                        inputs=64, space=8, step=step, alu_fetch_ratio=1.0
                    )
                )
            ).gpr_count
            for step in range(8)
        }
        assert len(counts) == 1

    def test_write_kernel_gprs_independent_of_outputs(self):
        # §III-C: GPRs depend on the constant input size, not outputs
        counts = {
            compile_kernel(
                generate_generic(
                    KernelParams(inputs=8, outputs=n, alu_ops=16)
                )
            ).gpr_count
            for n in range(1, 9)
        }
        assert max(counts) - min(counts) <= 1

    def test_clause_temps_bounded_by_two(self):
        kernel = generate_generic(KernelParams(inputs=16, alu_fetch_ratio=4.0))
        program = compile_kernel(kernel)
        assert 0 <= program.clause_temp_count <= 2

    def test_chain_uses_previous_vector(self):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=8))
        program = compile_kernel(kernel)
        sources = [
            value.location
            for clause in program.alu_clauses()
            for bundle in clause.bundles
            for op in bundle.ops
            for value in op.sources
        ]
        assert ValueLocation.PREVIOUS_VECTOR in sources

    def test_fetch_destinations_are_gprs(self):
        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        program = compile_kernel(kernel)
        for clause in program.tex_clauses():
            for fetch in clause.fetches:
                assert fetch.dest.location is ValueLocation.GPR

    def test_gpr_indices_start_above_position_register(self):
        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        program = compile_kernel(kernel)
        indices = [
            fetch.dest.index
            for clause in program.tex_clauses()
            for fetch in clause.fetches
        ]
        assert min(indices) >= 1  # R0 is the position register


class TestCompiledCounts:
    def test_reported_ratio_matches_request(self):
        for ratio in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            kernel = generate_generic(
                KernelParams(inputs=16, alu_fetch_ratio=ratio)
            )
            program = compile_kernel(kernel)
            assert program.reported_alu_fetch_ratio() == pytest.approx(
                ratio, rel=0.05
            )

    def test_bundle_count_equals_op_count_for_chains(self):
        # dependent chains: one op per bundle, any data type
        for dtype in DataType:
            kernel = generate_generic(
                KernelParams(inputs=8, alu_fetch_ratio=2.0, dtype=dtype)
            )
            program = compile_kernel(kernel)
            assert program.bundle_count == program.alu_op_count == 64

    @settings(max_examples=25, deadline=None)
    @given(
        inputs=st.integers(min_value=2, max_value=24),
        ratio=st.floats(min_value=0.25, max_value=6.0),
        dtype=st.sampled_from(list(DataType)),
        mode=st.sampled_from(list(ShaderMode)),
    )
    def test_compile_preserves_instruction_counts(
        self, inputs, ratio, dtype, mode
    ):
        params = KernelParams(
            inputs=inputs, alu_fetch_ratio=ratio, dtype=dtype, mode=mode
        )
        kernel = generate_generic(params)
        program = compile_kernel(kernel, RV770)
        assert program.fetch_count == kernel.fetch_instruction_count()
        assert program.alu_op_count == kernel.alu_instruction_count()
        assert program.store_count == kernel.store_instruction_count()
        assert 1 <= program.gpr_count <= 256
        assert 0 <= program.clause_temp_count <= 2
