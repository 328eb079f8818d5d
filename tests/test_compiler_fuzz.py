"""Property tests of the compiler on random well-formed IL kernels.

The kernels come from :func:`tests.strategies.kernels`; each failure
the fuzzer found is kept below as a named regression test.
"""

from hypothesis import HealthCheck, given, settings

from repro.compiler import compile_kernel
from repro.il.parser import parse_il
from repro.il.text import emit_il
from repro.il.validate import validate_kernel
from repro.isa.serialize import program_from_json, program_to_json
from repro.verify.differential import check_lowering

from tests.strategies import kernels


# Capped so tier-1 stays quick; raise max_examples locally to search harder.
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(kernels())
def test_random_kernels_compile_and_round_trip(kernel):
    program = compile_kernel(kernel)
    text = emit_il(kernel)
    parsed = parse_il(text)
    assert parsed == kernel
    assert emit_il(parsed) == text
    assert program_from_json(program_to_json(program)) == program


# ---- regressions the fuzzer found ------------------------------------------

def _parsed(body: str, inputs: int = 1):
    decls = "".join(
        f"dcl_resource_id({i})_type(2d,unnorm)_fmt(float)\n" for i in range(inputs)
    )
    return parse_il(
        "il_ps_2_0\n; kernel: redefined\n; dtype: float\n"
        "dcl_input_position_interp(linear_noperspective) v0.xy__\n"
        f"{decls}dcl_output_generic o0\n{body}end\n"
    )


class TestRedefinedTemps:
    """Each write of an ``rN`` is its own value, with its own register."""

    def test_redefined_temp_keeps_earlier_value_live(self):
        # ``add r2, r4, r3`` redefines r2 while r0 is still live; keying
        # storage by register once emitted ``ADD R1, R1, R2`` and
        # clobbered r0.
        kernel = _parsed(
            "sample_resource(0)_sampler(0) r0, v0\n"
            "sample_resource(1)_sampler(1) r1, v0\n"
            "add r2, r0, r1\n"
            "add r3, r2, r0\n"
            "mul r4, r3, r1\n"
            "add r2, r4, r3\n"
            "mul r5, r2, r4\n"
            "add r6, r5, r2\n"
            "mov o0, r6\n",
            inputs=2,
        )
        validate_kernel(kernel)
        program = compile_kernel(kernel)
        assert check_lowering(kernel, program) == []

    def test_fetch_redefined_by_alu_op(self):
        kernel = _parsed(
            "sample_resource(0)_sampler(0) r0, v0\n"
            "mov r0, r0\n"
            "mov o0, r0\n"
        )
        program = compile_kernel(kernel)
        assert check_lowering(kernel, program) == []
