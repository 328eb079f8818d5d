"""Differential validation: compiled ISA execution == IL execution.

These tests prove the compiler preserves semantics through VLIW packing,
PV/PS forwarding with per-slot resolution, clause-temporary allocation
and GPR reuse — by executing both forms numerically and comparing.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps import matmul_pass_kernel, merge_kernels, montecarlo_kernel
from repro.compiler import compile_kernel
from repro.il import DataType, ILBuilder, ShaderMode
from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    Operand,
    SampleInstruction,
    const,
    position,
    temp,
)
from repro.il.module import ConstantDecl, ILKernel, InputDecl, OutputDecl
from repro.il.opcodes import ILOp
from repro.il.types import MemorySpace
from repro.isa import ISAExecutionError, ValueLocation, execute_program
from repro.isa.clauses import (
    ALUClause,
    ALUOp,
    Bundle,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
)
from repro.isa.program import ISAProgram
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.sim.functional import execute_kernel, position_array


def differential(kernel, n_inputs, constants=None, seed=0, domain=(4, 4)):
    rng = np.random.default_rng(seed)
    width, height = domain
    data = {
        i: (rng.random((height, width)) * 0.5 + 0.25).astype(np.float32)
        for i in range(n_inputs)
    }
    il_out = execute_kernel(kernel, data, domain, constants)
    isa_out = execute_program(compile_kernel(kernel), data, domain, constants)
    assert set(il_out) == set(isa_out)
    for index in il_out:
        np.testing.assert_allclose(
            il_out[index], isa_out[index], rtol=1e-4, atol=1e-5
        )


class TestGeneratorFamily:
    def test_generic_small(self):
        differential(generate_generic(KernelParams(inputs=4, alu_ops=8)), 4)

    def test_generic_float4(self):
        differential(
            generate_generic(
                KernelParams(inputs=8, alu_ops=24, dtype=DataType.FLOAT4)
            ),
            8,
        )

    def test_generic_multiple_outputs(self):
        differential(
            generate_generic(KernelParams(inputs=8, outputs=4, alu_ops=16)), 8
        )

    def test_register_usage_all_steps(self):
        for step in (0, 3, 7):
            params = KernelParams(
                inputs=64, space=8, step=step, alu_fetch_ratio=1.0
            )
            differential(generate_register_usage(params), 64, seed=step)

    def test_clause_usage_control(self):
        params = KernelParams(inputs=64, space=8, step=5, alu_fetch_ratio=1.0)
        differential(generate_clause_usage(params), 64)

    def test_constants(self):
        differential(
            generate_generic(KernelParams(inputs=4, alu_ops=10, constants=2)),
            4,
            constants={0: 1.5, 1: -0.25},
        )

    def test_merged_kernels(self):
        merged = merge_kernels(
            generate_generic(KernelParams(inputs=4, alu_ops=8), name="a"),
            generate_generic(KernelParams(inputs=5, alu_ops=9), name="b"),
        )
        differential(merged, 9)

    def test_applications(self):
        differential(matmul_pass_kernel(unroll=4), 9)
        differential(montecarlo_kernel(outputs=3, batches=2), 2)

    @settings(max_examples=25, deadline=None)
    @given(
        inputs=st.integers(min_value=2, max_value=20),
        alu_ops=st.integers(min_value=1, max_value=200),
        outputs=st.integers(min_value=1, max_value=3),
        dtype=st.sampled_from([DataType.FLOAT, DataType.FLOAT4]),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_differential_property(self, inputs, alu_ops, outputs, dtype, seed):
        assume(max(alu_ops, inputs - 1) >= outputs)
        params = KernelParams(
            inputs=inputs, outputs=outputs, alu_ops=alu_ops, dtype=dtype
        )
        differential(generate_generic(params), inputs, seed=seed)


class TestPVSlotResolution:
    def build_wide_bundle_kernel(self):
        """Four independent adds pack into one bundle; the next ops read
        two different results of that bundle — resolvable only with
        per-slot PV references."""
        builder = ILBuilder("pv_slots", ShaderMode.PIXEL, DataType.FLOAT)
        a = builder.declare_input()
        b = builder.declare_input()
        out = builder.declare_output()
        va, vb = builder.sample(a), builder.sample(b)
        r0 = builder.add(va, vb)       # slot x of bundle
        r1 = builder.sub(va, vb)       # slot y
        r2 = builder.mul(va, vb)       # slot z
        r3 = builder.alu(ILOp.MAX, va, vb)  # slot w
        combined = builder.add(r0, r2)  # reads PV.x and PV.z
        combined = builder.add(combined, r1)
        combined = builder.add(combined, r3)
        builder.store(out, combined)
        return builder.build()

    def test_distinct_pv_slots_emitted(self):
        program = compile_kernel(self.build_wide_bundle_kernel())
        pv_values = [
            (value.location, value.index)
            for clause in program.alu_clauses()
            for bundle in clause.bundles
            for op in bundle.ops
            for value in op.sources
            if value.location is ValueLocation.PREVIOUS_VECTOR
        ]
        slots = {index for _, index in pv_values}
        assert len(slots) >= 2  # PV.x and PV.z at least

    def test_wide_bundle_execution_correct(self):
        kernel = self.build_wide_bundle_kernel()
        differential(kernel, 2)
        # and against the closed form: (a+b) + a*b + (a-b) + max(a, b)
        a = np.full((2, 2), 3.0, np.float32)
        b = np.full((2, 2), 2.0, np.float32)
        out = execute_program(
            compile_kernel(kernel), {0: a, 1: b}, (2, 2)
        )[0][:, :, 0]
        assert np.allclose(out, (3 + 2) + 3 * 2 + (3 - 2) + 3)

    def test_transcendental_ps_forwarding(self):
        builder = ILBuilder("ps", ShaderMode.PIXEL, DataType.FLOAT)
        a = builder.declare_input()
        out = builder.declare_output()
        va = builder.sample(a)
        s = builder.alu(ILOp.SIN, va)  # t slot -> PS
        builder.store(out, builder.add(s, va))
        differential(builder.build(), 1)

    def test_pv_rendering_includes_slot(self):
        from repro.isa import disassemble

        program = compile_kernel(self.build_wide_bundle_kernel())
        assert "PV.x" in disassemble(program)


class TestISAInterpErrors:
    def test_missing_input(self):
        program = compile_kernel(
            generate_generic(KernelParams(inputs=2, alu_ops=2))
        )
        with pytest.raises(ISAExecutionError, match="not provided"):
            execute_program(program, {0: np.zeros((2, 2))}, (2, 2))

    def test_shape_mismatch(self):
        program = compile_kernel(
            generate_generic(KernelParams(inputs=2, alu_ops=2))
        )
        with pytest.raises(ISAExecutionError, match="shape"):
            execute_program(
                program,
                {0: np.zeros((2, 2)), 1: np.zeros((8, 8))},
                (2, 2),
            )



# ---- a hand-built program reading every operand kind ----------------------

R, T = ValueLocation.GPR, ValueLocation.CLAUSE_TEMP
PV, PS = ValueLocation.PREVIOUS_VECTOR, ValueLocation.PREVIOUS_SCALAR
KC, R0 = ValueLocation.CONSTANT, ValueLocation.POSITION


def v(location, index=0, negate=False):
    return Value(location, index, negate)


def bundle(*ops):
    return Bundle(tuple(ALUOp(*op) for op in ops))


def il_alu(op, dest, *sources):
    """``sources``: (register, negate) pairs."""
    return ALUInstruction(
        op, temp(dest), tuple(Operand(reg, neg) for reg, neg in sources)
    )


def reads_kernel():
    """The IL side: ``o0 = (-rcp(dp4(-(-(a-b)*c), a)) - pos) * (a-b) - c``
    and ``o1 = rcp(...) * pos``, over FLOAT4 so DP4 and pos.y matter."""
    r = temp
    return ILKernel(
        name="reads",
        mode=ShaderMode.PIXEL,
        dtype=DataType.FLOAT4,
        inputs=tuple(
            InputDecl(i, MemorySpace.TEXTURE, DataType.FLOAT4)
            for i in range(2)
        ),
        outputs=tuple(
            OutputDecl(i, MemorySpace.COLOR_BUFFER, DataType.FLOAT4)
            for i in range(2)
        ),
        constants=(ConstantDecl(0, DataType.FLOAT),),
        body=(
            SampleInstruction(r(0), 0, Operand(position())),
            SampleInstruction(r(1), 1, Operand(position())),
            il_alu(ILOp.ADD, 2, (r(0), False), (r(1), True)),
            il_alu(ILOp.MUL, 3, (r(2), True), (const(0), False)),
            il_alu(ILOp.DP4, 4, (r(3), True), (r(0), False)),
            il_alu(ILOp.RCP, 5, (r(4), False)),
            il_alu(ILOp.ADD, 6, (r(5), True), (position(), True)),
            il_alu(ILOp.MUL, 8, (r(5), False), (position(), False)),
            il_alu(
                ILOp.MAD, 7, (r(6), False), (r(2), False), (const(0), True)
            ),
            ExportInstruction(0, Operand(r(7))),
            ExportInstruction(1, Operand(r(8))),
        ),
    )


def reads_program(alu_clauses, stores):
    """Fetch inputs 0/1 into R1/R2, run ``alu_clauses``, store ``stores``."""
    fetches = tuple(
        FetchInstr(v(R, i + 1), i, MemorySpace.TEXTURE) for i in range(2)
    )
    return ISAProgram(
        kernel=reads_kernel(),
        clauses=(
            TEXClause(fetches),
            *(ALUClause(bundles) for bundles in alu_clauses),
            ExportClause(
                tuple(
                    StoreInstr(target, MemorySpace.COLOR_BUFFER, value)
                    for target, value in enumerate(stores)
                )
            ),
        ),
        gpr_count=7,
        clause_temp_count=1,
    )


class TestHandBuiltReads:
    """The ISA side of :func:`reads_kernel` reads ``R``, ``T0``, ``PV.x``,
    ``PS``, ``KC0`` and ``R0``, each both negated and plain."""

    DOMAIN = (4, 3)  # width x height: position x and y differ
    CONSTANTS = {0: 1.25}

    def inputs(self):
        width, height = self.DOMAIN
        rng = np.random.default_rng(7)
        return {
            i: rng.uniform(0.25, 1.75, (height, width, 4)).astype(np.float32)
            for i in range(2)
        }

    def test_outputs_are_bitwise_the_il_executors_and_numpys(self):
        program = reads_program(
            [
                (
                    bundle(("x", ILOp.ADD, v(T), (v(R, 1), v(R, 2, True)))),
                    bundle(("x", ILOp.MUL, v(R, 3), (v(T, 0, True), v(KC)))),
                    bundle(("x", ILOp.DP4, None, (v(PV, 0, True), v(R, 1)))),
                    bundle(("t", ILOp.RCP, None, (v(PV),))),
                    bundle(
                        ("x", ILOp.ADD, v(R, 4), (v(PS, 0, True), v(R0, 0, True))),
                        ("y", ILOp.MUL, v(R, 6), (v(PS), v(R0))),
                    ),
                    bundle(
                        ("x", ILOp.MAD, v(R, 5), (v(R, 4), v(T), v(KC, 0, True)))
                    ),
                )
            ],
            [v(R, 5), v(R, 6)],
        )
        inputs = self.inputs()
        il_out = execute_kernel(
            program.kernel, inputs, self.DOMAIN, self.CONSTANTS
        )
        isa_out = execute_program(program, inputs, self.DOMAIN, self.CONSTANTS)

        width, height = self.DOMAIN
        a, b, c = inputs[0], inputs[1], np.float32(1.25)
        pos = np.zeros((height, width, 4), np.float32)
        pos[:, :, 0] = np.arange(width, dtype=np.float32)[np.newaxis, :]
        pos[:, :, 1] = np.arange(height, dtype=np.float32)[:, np.newaxis]
        diff = a + -b
        scaled = -diff * c
        dot = np.sum(-scaled * a, axis=2, keepdims=True)
        inverse = np.reciprocal(np.broadcast_to(dot, a.shape))
        expected = {0: (-inverse + -pos) * diff + -c, 1: inverse * pos}

        assert il_out.keys() == isa_out.keys() == expected.keys()
        for key, want in expected.items():
            assert il_out[key].dtype == isa_out[key].dtype == np.float32
            assert il_out[key].tobytes() == want.tobytes()
            assert isa_out[key].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "alu_clauses, message",
        [
            (
                [(bundle(("x", ILOp.MOV, v(R, 3), (v(R, 6),))),)],
                "read of uninitialized R6",
            ),
            (
                # T0 is written in one clause and read in the next
                [
                    (bundle(("x", ILOp.MOV, v(T), (v(R, 1),))),),
                    (bundle(("x", ILOp.MOV, v(R, 3), (v(T),))),),
                ],
                "read of dead clause temporary T0",
            ),
            (
                [
                    (
                        bundle(("x", ILOp.MOV, v(R, 3), (v(R, 1),))),
                        bundle(("x", ILOp.MOV, v(R, 3), (v(PV, 1),))),
                    )
                ],
                "no previous-bundle result in slot 1",
            ),
            (
                [
                    (
                        bundle(("x", ILOp.MOV, v(R, 3), (v(R, 1),))),
                        bundle(("x", ILOp.MOV, v(R, 3), (v(PS),))),
                    )
                ],
                "no previous-bundle t-slot result",
            ),
        ],
        ids=["R", "T", "PV", "PS"],
    )
    def test_missing_values_raise(self, alu_clauses, message):
        program = reads_program(alu_clauses, [v(R, 3)])
        with pytest.raises(ISAExecutionError) as excinfo:
            execute_program(
                program, self.inputs(), self.DOMAIN, self.CONSTANTS
            )
        assert str(excinfo.value) == message


# ---- pinned outputs, one small kernel per ALU opcode ------------------------

def opcode_kernel(op):
    """``w = op(y[, x[, pos]]) + -pos + x`` with ``x = a + -b`` and
    ``y = x * c``: once compiled, the program reads the constant, R0,
    negated operands, ``x`` from a clause temporary and each result of
    the previous bundle through PV, or PS for a transcendental op."""
    builder = ILBuilder(f"pin_{op.mnemonic}", ShaderMode.PIXEL, DataType.FLOAT4)
    a, b = builder.declare_input(), builder.declare_input()
    out = builder.declare_output()
    c = builder.declare_constant()
    va, vb = builder.sample(a), builder.sample(b)
    x = builder.add(va, Operand(vb, negate=True))
    y = builder.mul(x, c)
    r = builder.alu(op, *(y, x, builder.position)[: op.arity])
    z = builder.add(r, Operand(builder.position, negate=True))
    builder.store(out, builder.add(z, x))
    return builder.build()


#: SHA-256 (first 16 hex digits) of each opcode kernel's seeded output
#: bytes.  A change to any ``ALU_OPS`` entry moves its pin, whichever
#: executor runs it.
OPCODE_PINS = {
    "mov": "3c9b2c45b64f1805",
    "add": "cb4d2542421397e0",
    "sub": "a5192ef287e67dc3",
    "mul": "84e69b8d9e24fcbb",
    "mad": "cca7e85e07035073",
    "min": "3f13fec690e130ff",
    "max": "908ae18cd014b59a",
    "dp4": "0fdc42ddb01c38d8",
    "flr": "0bd5bf1e8f18bb9f",
    "frc": "02690e96fcd57c36",
    "rcp": "ecce0a791112f74b",
    "rsq": "ac5a861282790dc3",
    "sqrt": "460cebfc24fdb536",
}
#: exp, log, sin and cos are not correctly rounded, and NumPy picks
#: their SIMD implementation by CPU, so their kernels are checked
#: against the same expression with the op taken in float64 instead.
LIBM = {
    "exp": np.exp,
    "log": lambda v: np.log(np.abs(v) + 1e-30),
    "sin": np.sin,
    "cos": np.cos,
}


class TestOpcodePins:
    @pytest.mark.parametrize("op", list(ILOp), ids=lambda op: op.mnemonic)
    def test_both_executors_give_the_pinned_outputs(self, op):
        from repro.verify.differential import seeded_case

        kernel = opcode_kernel(op)
        program = compile_kernel(kernel)
        locations = {
            value.location
            for clause in program.alu_clauses()
            for bundle in clause.bundles
            for alu in bundle.ops
            for value in alu.sources
        }
        forwarded = PS if op.transcendental else PV
        assert {forwarded, T, KC, R0} <= locations
        case = seeded_case(kernel)
        il_out = execute_kernel(kernel, case.inputs, case.domain, case.constants)
        isa_out = execute_program(program, case.inputs, case.domain, case.constants)
        assert il_out.keys() == isa_out.keys() == {0}
        out = il_out[0]
        assert out.dtype == np.float32
        assert isa_out[0].tobytes() == out.tobytes()
        if op.mnemonic in LIBM:
            a, b = case.inputs[0], case.inputs[1]
            x = a + -b
            y = x * np.float32(case.constants[0])
            r = LIBM[op.mnemonic](y.astype(np.float64)).astype(np.float32)
            want = r + -position_array(out.shape) + x
            np.testing.assert_allclose(out, want, rtol=4e-6, atol=2e-6)
        else:
            digest = hashlib.sha256(out.tobytes()).hexdigest()[:16]
            assert digest == OPCODE_PINS[op.mnemonic]


# ---- memos on interned clauses and bundles ---------------------------------

def _fresh(program):
    """``program`` rebuilt from new, un-interned clauses and bundles: the
    same content, with no memo on any of it."""
    return ISAProgram(
        program.kernel,
        tuple(
            ALUClause(tuple(Bundle(b.ops) for b in c.bundles))
            if isinstance(c, ALUClause)
            else c
            for c in program.clauses
        ),
        program.gpr_count,
        program.clause_temp_count,
    )


def _outcome(program):
    """The ISA checks' findings, and the seeded run's output bytes or
    its error."""
    from repro.verify.differential import seeded_case
    from repro.verify.isa_checks import check_program

    case = seeded_case(program.kernel)
    try:
        out = execute_program(program, case.inputs, case.domain, case.constants)
        run = {key: array.tobytes() for key, array in out.items()}
    except ISAExecutionError as exc:
        run = str(exc)
    return [str(d) for d in check_program(program)], run


#: SHA-256 (first 16 hex digits) of the default-sweep fig11 programs,
#: serialized, and of their seeded IL-executor outputs, in IL text order.
FIG11_PINS = ("32fa7a73ed7e29c0", "21dea69b43efbd9e")


class TestMemoSafety:
    def test_a_shared_clause_behaves_as_a_fresh_one_in_any_context(self):
        params = KernelParams(inputs=4, alu_ops=12)
        scalar = compile_kernel(generate_generic(params))
        vector = compile_kernel(
            generate_generic(params.with_(dtype=DataType.FLOAT4))
        )
        shared = next(scalar.alu_clauses())
        assert any(clause is shared for clause in vector.clauses)
        # The same clause after fetches into other GPRs, so it reads
        # unwritten ones; then also with no clause temporary declared.
        tex = next(scalar.tex_clauses())
        moved = TEXClause(
            tuple(
                FetchInstr(v(R, f.dest.index + 4), f.resource, f.space)
                for f in tex.fetches
            )
        )
        clauses = (moved, shared, *scalar.export_clauses())
        elsewhere = [
            ISAProgram(scalar.kernel, clauses, scalar.gpr_count + 4, temps)
            for temps in (scalar.clause_temp_count, 0)
        ]
        for program in (scalar, vector, *elsewhere, scalar):
            assert _outcome(program) == _outcome(_fresh(program))
        for program in elsewhere:
            findings, run = _outcome(program)
            assert findings and run == "read of uninitialized R1"

    def test_fig11_compiles_alike_with_tiny_intern_tables(self, monkeypatch):
        import json

        from repro.compiler.cache import CompileCache
        from repro.il.text import emit_il
        from repro.isa import clauses
        from repro.isa.serialize import program_to_json
        from repro.suite import run_suite
        from repro.verify.differential import seeded_case

        # Empty tables of two entries each: nearly every bundle and clause
        # is built anew, and the memos of dropped ones are left behind.
        monkeypatch.setattr(clauses, "_BUNDLES_MAX", 2)
        monkeypatch.setattr(clauses, "_BUNDLES", {})
        monkeypatch.setattr(clauses, "_ALU_CLAUSES", {})
        compiled = {}
        get_or_compile = CompileCache.get_or_compile

        def recording(self, kernel, *args, **kwargs):
            program = get_or_compile(self, kernel, *args, **kwargs)
            compiled.setdefault(emit_il(kernel), (kernel, program))
            return program

        monkeypatch.setattr(CompileCache, "get_or_compile", recording)
        run_suite(figures=["fig11"], fast=True)
        assert len(compiled) == 24
        assert len(clauses._BUNDLES) <= 2 and len(clauses._ALU_CLAUSES) <= 2
        programs, outputs = hashlib.sha256(), hashlib.sha256()
        for text in sorted(compiled):
            kernel, program = compiled[text]
            programs.update(
                json.dumps(program_to_json(program), sort_keys=True).encode()
            )
            case = seeded_case(kernel)
            run = (case.inputs, case.domain, case.constants)
            il_out = execute_kernel(kernel, *run)
            isa_out = execute_program(program, *run)
            assert il_out.keys() == isa_out.keys()
            for key in sorted(il_out):
                assert isa_out[key].tobytes() == il_out[key].tobytes()
                outputs.update(il_out[key].tobytes())
        digests = (programs.hexdigest()[:16], outputs.hexdigest()[:16])
        assert digests == FIG11_PINS
