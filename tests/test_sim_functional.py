"""Tests for the functional (numerical) IL executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.il import DataType, ILBuilder, MemorySpace, ShaderMode
from repro.il.opcodes import ILOp
from repro.kernels import KernelParams, generate_generic
from repro.sim.functional import ALU_OPS, ExecutionError, execute_kernel


def chain_weights(inputs: int, alu_ops: int) -> np.ndarray:
    """Input weights of the Figure 3 chain (Fibonacci tail weighting)."""
    coeffs = np.zeros(inputs)
    coeffs[0] = coeffs[1] = 1.0
    chain = [coeffs.copy()]
    ops = 1
    for x in range(2, inputs):
        nxt = chain[-1].copy()
        nxt[x] += 1.0
        chain.append(nxt)
        ops += 1
    while ops < alu_ops:
        nxt = chain[-1] + (chain[-2] if len(chain) >= 2 else 0)
        chain.append(nxt)
        ops += 1
    return chain[-1]


class TestGenericChainExecution:
    def test_two_input_add(self):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=1))
        a = np.full((4, 4), 3.0, dtype=np.float32)
        b = np.full((4, 4), 5.0, dtype=np.float32)
        out = execute_kernel(kernel, {0: a, 1: b}, (4, 4))
        assert np.allclose(out[0][:, :, 0], 8.0)

    def test_chain_weights_match_closed_form(self):
        inputs, alu_ops = 6, 12
        kernel = generate_generic(KernelParams(inputs=inputs, alu_ops=alu_ops))
        rng = np.random.default_rng(7)
        data = {
            i: rng.random((3, 3)).astype(np.float32) for i in range(inputs)
        }
        out = execute_kernel(kernel, data, (3, 3))[0][:, :, 0]
        weights = chain_weights(inputs, alu_ops)
        expected = sum(w * data[i] for i, w in enumerate(weights))
        assert np.allclose(out, expected, rtol=1e-4)

    def test_float4_broadcasts_scalar_inputs(self):
        kernel = generate_generic(
            KernelParams(inputs=2, alu_ops=1, dtype=DataType.FLOAT4)
        )
        a = np.full((2, 2), 1.0, dtype=np.float32)
        b = np.full((2, 2), 2.0, dtype=np.float32)
        out = execute_kernel(kernel, {0: a, 1: b}, (2, 2))
        assert out[0].shape == (2, 2, 4)
        assert np.allclose(out[0], 3.0)

    def test_multiple_outputs_distinct(self):
        kernel = generate_generic(KernelParams(inputs=4, outputs=2, alu_ops=8))
        data = {i: np.full((2, 2), float(i + 1), dtype=np.float32) for i in range(4)}
        out = execute_kernel(kernel, data, (2, 2))
        assert set(out) == {0, 1}
        assert not np.allclose(out[0], out[1])

    def test_global_kernels_execute_too(self):
        kernel = generate_generic(
            KernelParams(
                inputs=2,
                alu_ops=1,
                input_space=MemorySpace.GLOBAL,
                output_space=MemorySpace.GLOBAL,
            )
        )
        a = np.full((2, 2), 1.5, dtype=np.float32)
        out = execute_kernel(kernel, {0: a, 1: a}, (2, 2))
        assert np.allclose(out[0], 3.0)


class TestOpcodes:
    def build_unary(self, op):
        builder = ILBuilder("u", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input()
        out = builder.declare_output()
        builder.store(out, builder.alu(op, builder.sample(src)))
        return builder.build()

    @pytest.mark.parametrize(
        "op, fn",
        [
            (ILOp.MOV, lambda a: a),
            (ILOp.FLR, np.floor),
            (ILOp.FRC, lambda a: a - np.floor(a)),
            (ILOp.SQRT, np.sqrt),
            (ILOp.EXP, np.exp),
            (ILOp.SIN, np.sin),
            (ILOp.COS, np.cos),
        ],
    )
    def test_unary_ops(self, op, fn):
        kernel = self.build_unary(op)
        data = np.linspace(0.25, 4.0, 16, dtype=np.float32).reshape(4, 4)
        out = execute_kernel(kernel, {0: data}, (4, 4))[0][:, :, 0]
        assert np.allclose(out, fn(data.astype(np.float32)), rtol=1e-4)

    def test_mad(self):
        builder = ILBuilder("m", ShaderMode.PIXEL, DataType.FLOAT)
        a, b, c = (builder.declare_input() for _ in range(3))
        out = builder.declare_output()
        builder.store(
            out,
            builder.mad(builder.sample(a), builder.sample(b), builder.sample(c)),
        )
        kernel = builder.build()
        va = np.full((2, 2), 2.0, np.float32)
        vb = np.full((2, 2), 3.0, np.float32)
        vc = np.full((2, 2), 4.0, np.float32)
        out_arr = execute_kernel(kernel, {0: va, 1: vb, 2: vc}, (2, 2))[0]
        assert np.allclose(out_arr, 10.0)

    def test_one_table_covers_every_opcode(self):
        # both executors dispatch through ALU_OPS by mnemonic
        assert set(ALU_OPS) == {op.mnemonic for op in ILOp}

    @pytest.mark.parametrize("op", list(ILOp), ids=lambda op: op.mnemonic)
    def test_every_op_returns_float32_of_the_domain_shape(self, op):
        data = np.linspace(-2.0, 2.0, 24, dtype=np.float32).reshape(2, 3, 4)
        result = ALU_OPS[op.mnemonic](*[data] * op.arity)
        assert result.dtype == np.float32 and result.shape == data.shape

    def test_rcp_handles_zero(self):
        kernel = self.build_unary(ILOp.RCP)
        data = np.zeros((2, 2), dtype=np.float32)
        out = execute_kernel(kernel, {0: data}, (2, 2))[0]
        assert np.all(np.isfinite(out))


class TestErrors:
    def test_missing_input(self):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=1))
        with pytest.raises(ExecutionError, match="not provided"):
            execute_kernel(kernel, {0: np.zeros((2, 2))}, (2, 2))

    def test_shape_mismatch(self):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=1))
        with pytest.raises(ExecutionError, match="shape"):
            execute_kernel(
                kernel,
                {0: np.zeros((2, 2)), 1: np.zeros((3, 3))},
                (2, 2),
            )

    def test_component_mismatch(self):
        kernel = generate_generic(
            KernelParams(inputs=2, alu_ops=1, dtype=DataType.FLOAT4)
        )
        bad = np.zeros((2, 2, 2), dtype=np.float32)
        good = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ExecutionError, match="components"):
            execute_kernel(kernel, {0: bad, 1: good}, (2, 2))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        data=arrays(
            np.float32,
            (2, 3, 3),
            elements=st.floats(-100, 100, width=32),
        )
    )
    def test_addition_kernel_is_commutative(self, data):
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=1))
        forward = execute_kernel(
            kernel, {0: data[0], 1: data[1]}, (3, 3)
        )[0]
        backward = execute_kernel(
            kernel, {0: data[1], 1: data[0]}, (3, 3)
        )[0]
        assert np.allclose(forward, backward, equal_nan=True)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.25, 8.0, width=32))
    def test_chain_is_linear_in_inputs(self, scale):
        kernel = generate_generic(KernelParams(inputs=4, alu_ops=8))
        base = {
            i: np.full((2, 2), float(i + 1), dtype=np.float32)
            for i in range(4)
        }
        scaled = {i: arr * scale for i, arr in base.items()}
        out_base = execute_kernel(kernel, base, (2, 2))[0]
        out_scaled = execute_kernel(kernel, scaled, (2, 2))[0]
        assert np.allclose(out_scaled, out_base * scale, rtol=1e-3)
