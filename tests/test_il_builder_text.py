"""Tests for the IL builder, emitter, parser and validator."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.il import (
    DataType,
    ILBuilder,
    ILValidationError,
    MemorySpace,
    ShaderMode,
    emit_il,
    parse_il,
)
from repro.il.instructions import ALUInstruction, operand, temp
from repro.il.module import ILKernel
from repro.il.opcodes import ILOp
from repro.il.parser import ILParseError
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.verify import check_kernel
from repro.verify.diagnostics import errors


class TestBuilder:
    def test_fig2_kernel_shape(self):
        builder = ILBuilder("fig2", ShaderMode.PIXEL, DataType.FLOAT4)
        ins = [builder.declare_input() for _ in range(3)]
        out = builder.declare_output()
        acc = builder.sample(ins[0])
        acc = builder.add(acc, builder.sample(ins[1]))
        acc = builder.add(acc, builder.sample(ins[2]))
        builder.store(out, acc)
        kernel = builder.build()
        assert kernel.fetch_instruction_count() == 3
        assert kernel.alu_instruction_count() == 2
        assert kernel.store_instruction_count() == 1

    def test_compute_defaults_to_global_output(self):
        builder = ILBuilder("k", ShaderMode.COMPUTE, DataType.FLOAT)
        out = builder.declare_output()
        assert out.space is MemorySpace.GLOBAL

    def test_pixel_defaults_to_color_buffer(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        assert builder.declare_output().space is MemorySpace.COLOR_BUFFER

    def test_compute_rejects_color_buffer(self):
        builder = ILBuilder("k", ShaderMode.COMPUTE, DataType.FLOAT)
        with pytest.raises(ValueError, match="color buffers"):
            builder.declare_output(MemorySpace.COLOR_BUFFER)

    def test_global_input_becomes_global_load(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input(MemorySpace.GLOBAL)
        out = builder.declare_output()
        value = builder.sample(src)
        builder.store(out, builder.add(value, value))
        text = emit_il(builder.build())
        assert "g[v0]" in text

    def test_fresh_registers_are_unique(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        regs = {builder.fresh() for _ in range(100)}
        assert len(regs) == 100

    def test_constants_render_as_cb0(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        c = builder.declare_constant()
        src = builder.declare_input()
        out = builder.declare_output()
        builder.store(out, builder.add(builder.sample(src), c))
        # single-input chain: input must be combined with something —
        # the constant makes it valid despite one input.
        kernel_text = emit_il(builder.build())
        assert "cb0[0]" in kernel_text


#: one recipe per generator, each with more than one ALU source shape.
GENERATED = {
    "generic": lambda: generate_generic(
        KernelParams(inputs=4, constants=2, alu_fetch_ratio=3.0)
    ),
    "register_usage": lambda: generate_register_usage(
        KernelParams(inputs=16, space=4, step=2, alu_fetch_ratio=1.0)
    ),
    "clause_usage": lambda: generate_clause_usage(
        KernelParams(inputs=16, space=4, step=2, alu_fetch_ratio=1.0)
    ),
}


class TestBuilderFastPath:
    """The builder's cheap ALU construction and operand coercion: its
    instructions must be indistinguishable from parsed ones."""

    def test_arity_error_matches_the_constructor(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        a, b = builder.fresh(), builder.fresh()
        with pytest.raises(ValueError) as direct:
            ALUInstruction(ILOp.MAD, temp(9), (operand(a), operand(b)))
        with pytest.raises(ValueError) as built:
            builder.alu(ILOp.MAD, a, b)
        assert str(built.value) == str(direct.value)
        assert str(built.value) == "mad expects 3 sources, got 2"

    @pytest.mark.parametrize("generator", sorted(GENERATED))
    def test_built_body_equals_parsed_body(self, generator):
        kernel = GENERATED[generator]()
        parsed = parse_il(emit_il(kernel))
        assert len(kernel.body) == len(parsed.body)
        for built, reread in zip(kernel.body, parsed.body):
            assert type(built) is type(reread)
            assert built == reread
            assert hash(built) == hash(reread)
            assert repr(built) == repr(reread)
        assert kernel.body == parsed.body

    @pytest.mark.parametrize("generator", sorted(GENERATED))
    def test_built_body_survives_pickling(self, generator):
        kernel = GENERATED[generator]()
        body = pickle.loads(pickle.dumps(kernel.body))
        assert body == kernel.body
        assert [hash(i) for i in body] == [hash(i) for i in kernel.body]
        assert [str(i) for i in body] == [str(i) for i in kernel.body]

    def test_negated_operand_renders_with_a_minus(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input()
        out = builder.declare_output()
        value = builder.sample(src)
        dest = builder.sub(value, operand(value, negate=True))
        builder.store(out, dest)
        kernel = builder.build()
        line = f"sub {dest}, {value}, -{value}"
        assert str(kernel.body[1]) == line
        assert line in emit_il(kernel).splitlines()
        assert str(operand(value, negate=True)) == f"-{value}"
        assert str(operand(value)) == str(value)


def assert_rejected(builder: ILBuilder, match: str) -> None:
    """``build()`` raises the first error ``check_kernel`` reports."""
    with pytest.raises(ILValidationError, match=match) as excinfo:
        builder.build()
    unchecked = ILKernel(
        name=builder.name,
        mode=builder.mode,
        dtype=builder.dtype,
        inputs=tuple(builder._inputs),
        outputs=tuple(builder._outputs),
        constants=tuple(builder._constants),
        body=tuple(builder._body),
    )
    assert str(excinfo.value) == errors(check_kernel(unchecked))[0].message


class TestValidation:
    def test_no_output_rejected(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input()
        builder.sample(src)
        assert_rejected(builder, "no outputs")

    def test_unsampled_input_rejected(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        builder.declare_input()  # declared but never sampled
        constant = builder.declare_constant()
        out = builder.declare_output()
        builder.store(out, builder.mov(constant))
        assert_rejected(builder, "never sampled")

    def test_sampled_but_unused_input_rejected(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        a = builder.declare_input()
        b = builder.declare_input()
        out = builder.declare_output()
        va = builder.sample(a)
        builder.sample(b)  # fetched but never used
        builder.store(out, builder.add(va, va))
        assert_rejected(builder, "never used")

    def test_read_before_write_rejected(self):
        from repro.il.instructions import temp, operand
        from repro.il.opcodes import ILOp
        from repro.il.instructions import ALUInstruction, ExportInstruction

        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input()
        out = builder.declare_output()
        value = builder.sample(src)
        builder.emit(
            ALUInstruction(ILOp.ADD, temp(99), (operand(value), operand(temp(50))))
        )
        builder.emit(ExportInstruction(0, operand(temp(99))))
        assert_rejected(builder, "before it is written")

    def test_unwritten_output_rejected(self):
        builder = ILBuilder("k", ShaderMode.PIXEL, DataType.FLOAT)
        src = builder.declare_input()
        out0 = builder.declare_output()
        builder.declare_output()  # never stored
        value = builder.sample(src)
        builder.store(out0, builder.add(value, value))
        assert_rejected(builder, "never")


class TestEmitParse:
    def test_roundtrip_generic_pixel_float(self):
        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        text = emit_il(kernel)
        parsed = parse_il(text)
        assert emit_il(parsed) == text

    def test_roundtrip_compute_global(self):
        params = KernelParams(
            inputs=3,
            alu_ops=4,
            mode=ShaderMode.COMPUTE,
            input_space=MemorySpace.GLOBAL,
            dtype=DataType.FLOAT4,
        )
        kernel = generate_generic(params)
        text = emit_il(kernel)
        parsed = parse_il(text)
        assert emit_il(parsed) == text
        assert parsed.mode is ShaderMode.COMPUTE
        assert parsed.input_space() is MemorySpace.GLOBAL

    def test_parse_preserves_name_and_metadata(self):
        kernel = generate_generic(
            KernelParams(inputs=2, alu_ops=2), name="my_kernel"
        )
        parsed = parse_il(emit_il(kernel))
        assert parsed.name == "my_kernel"
        assert parsed.metadata["generator"] == "generic"

    def test_header_required(self):
        with pytest.raises(ILParseError, match="header"):
            parse_il("mov o0, r0\nend\n")

    def test_end_required(self):
        with pytest.raises(ILParseError, match="end"):
            parse_il("il_ps_2_0\n")

    def test_instruction_after_end_rejected(self):
        with pytest.raises(ILParseError, match="after 'end'"):
            parse_il("il_ps_2_0\nend\nmov o0, r0\n")

    def test_garbage_instruction_rejected(self):
        with pytest.raises(ILParseError, match="unknown IL opcode"):
            parse_il("il_ps_2_0\nfrobnicate r1, r2\nend\n")
        with pytest.raises(ILParseError, match="unrecognized"):
            parse_il("il_ps_2_0\n!!! not an instruction\nend\n")

    @settings(max_examples=25, deadline=None)
    @given(
        inputs=st.integers(min_value=2, max_value=12),
        ratio=st.floats(min_value=0.25, max_value=4.0),
        dtype=st.sampled_from(list(DataType)),
        mode=st.sampled_from(list(ShaderMode)),
    )
    def test_roundtrip_property(self, inputs, ratio, dtype, mode):
        """Every generated kernel survives emit -> parse -> emit."""
        kernel = generate_generic(
            KernelParams(
                inputs=inputs, alu_fetch_ratio=ratio, dtype=dtype, mode=mode
            )
        )
        text = emit_il(kernel)
        assert emit_il(parse_il(text)) == text
