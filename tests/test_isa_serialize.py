"""The compiled-program serialization contract (repro.isa.serialize).

The compile cache persists :class:`ISAProgram` values across processes,
so the JSON round-trip must be *exact*: the rebuilt program executes
bitwise-identically in the ISA interpreter and reports the same
``gpr_count`` and clause structure.  These tests prove that for every
generator family across all three GPUs, and pin the failure modes —
corrupt or schema-mismatched payloads raise :class:`SerializationError`
rather than decoding to garbage.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.arch import RV670, RV770, RV870
from repro.compiler import compile_kernel
from repro.il import DataType, ShaderMode
from repro.isa import execute_program
from repro.isa.clauses import ALUClause, ALUOp, Bundle
from repro.isa.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    program_digest,
    program_from_json,
    program_to_json,
)
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.verify import seeded_constants, seeded_inputs

GPUS = (RV670, RV770, RV870)

#: one representative per generator family, both shader modes and both
#: data types — the shapes the suite actually compiles and caches.
KERNELS = {
    "generic": lambda: generate_generic(
        KernelParams(inputs=4, alu_ops=12, constants=2)
    ),
    "generic_float4": lambda: generate_generic(
        KernelParams(inputs=8, alu_ops=24, dtype=DataType.FLOAT4)
    ),
    "generic_compute": lambda: generate_generic(
        KernelParams(inputs=4, alu_ops=8, mode=ShaderMode.COMPUTE)
    ),
    "clause_usage": lambda: generate_clause_usage(
        KernelParams(inputs=16, space=4, step=2, alu_fetch_ratio=4.0)
    ),
    "register_usage": lambda: generate_register_usage(
        KernelParams(inputs=64, space=8, step=2)
    ),
}


def roundtrip(program):
    """Encode through an actual JSON string, exactly like the disk store."""
    payload = json.loads(json.dumps(program_to_json(program)))
    return program_from_json(payload)


def executions_bitwise_equal(kernel, original, rebuilt):
    inputs = seeded_inputs(kernel)
    constants = seeded_constants(kernel)
    domain = (4, 4)
    out_a = execute_program(original, inputs, domain, constants)
    out_b = execute_program(rebuilt, inputs, domain, constants)
    assert set(out_a) == set(out_b)
    for index in out_a:
        # Bitwise equality, not allclose: the round-trip must restore the
        # exact program, so float32 results match to the last ulp.
        np.testing.assert_array_equal(out_a[index], out_b[index])
        assert out_a[index].dtype == out_b[index].dtype


@pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.chip)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_roundtrip_every_generator_on_every_gpu(name, gpu):
    kernel = KERNELS[name]()
    if kernel.mode is ShaderMode.COMPUTE and not gpu.supports_compute_shader:
        pytest.skip(f"{gpu.chip} has no compute shader mode")
    program = compile_kernel(kernel, gpu)
    rebuilt = roundtrip(program)

    assert rebuilt.gpr_count == program.gpr_count
    assert rebuilt.clause_temp_count == program.clause_temp_count
    # Clause dataclasses are frozen and compare by fields: this pins the
    # full structure — clause kinds, bundle packing, operand encoding.
    assert rebuilt.clauses == program.clauses
    assert rebuilt.kernel.name == program.kernel.name
    executions_bitwise_equal(kernel, program, rebuilt)


def test_digest_stable_across_roundtrip():
    kernel = KERNELS["generic"]()
    program = compile_kernel(kernel, RV770)
    rebuilt = roundtrip(program)
    assert program_digest(rebuilt) == program_digest(program)


def test_digests_distinguish_programs():
    kernel = KERNELS["generic"]()
    digests = {program_digest(compile_kernel(kernel, gpu)) for gpu in GPUS}
    # RV670 (no float4 fetch coalescing pressure differences aside) may
    # coincide with another chip only if compilation is truly identical;
    # the generic kernel compiles differently per clause budget, so all
    # three digests are expected distinct from the cross-kernel one.
    other = program_digest(compile_kernel(KERNELS["clause_usage"](), RV770))
    assert other not in digests


def test_kernel_shortcut_attaches_caller_kernel():
    # program_from_json(kernel=...) is the parse-free warm-load path: the
    # compile cache passes the kernel whose IL hash produced the key.
    kernel = KERNELS["generic"]()
    program = compile_kernel(kernel, RV770)
    rebuilt = program_from_json(program_to_json(program), kernel=kernel)
    assert rebuilt.kernel is kernel
    assert rebuilt.clauses == program.clauses
    executions_bitwise_equal(kernel, program, rebuilt)


class TestRejectsBadPayloads:
    def payload(self):
        # Through a JSON string, as the store reads it: memoized bundle
        # encodings are tuples and cannot be edited in place.
        program = compile_kernel(KERNELS["generic"](), RV770)
        return json.loads(json.dumps(program_to_json(program)))

    def test_non_dict(self):
        with pytest.raises(SerializationError):
            program_from_json(["not", "a", "program"])

    def test_schema_mismatch(self):
        data = self.payload()
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SerializationError, match="schema"):
            program_from_json(data)

    def test_missing_field(self):
        data = self.payload()
        del data["gpr_count"]
        with pytest.raises(SerializationError):
            program_from_json(data)

    def test_unknown_clause_kind(self):
        data = self.payload()
        data["clauses"][0]["kind"] = "wat"
        with pytest.raises(SerializationError, match="clause kind"):
            program_from_json(data)

    def test_corrupt_il_text(self):
        data = self.payload()
        data["il"] = "this is not IL"
        with pytest.raises(SerializationError):
            program_from_json(data)

    @pytest.mark.parametrize("mnemonic", ["frobnicate", 7])
    def test_corrupt_bundle_operand(self, mnemonic):
        data = self.payload()
        data["bundles"][0][0][1] = mnemonic
        with pytest.raises(SerializationError):
            program_from_json(data)

    @pytest.mark.parametrize("index", [-1, 10_000])
    def test_out_of_range_bundle_index(self, index):
        data = self.payload()
        alu = next(c for c in data["clauses"] if c["kind"] == "alu")
        alu["bundles"][0] = index
        with pytest.raises(SerializationError):
            program_from_json(data)


class TestBundleTable:
    def test_equal_kernels_share_bundle_objects(self):
        first = compile_kernel(KERNELS["generic_float4"](), RV770)
        second = compile_kernel(KERNELS["generic_float4"](), RV770)
        bundles = [
            (a, b)
            for ca, cb in zip(first.clauses, second.clauses)
            if isinstance(ca, ALUClause)
            for a, b in zip(ca.bundles, cb.bundles)
        ]
        assert bundles
        assert all(a is b for a, b in bundles)

    def test_table_lists_each_distinct_bundle_once(self):
        program = compile_kernel(KERNELS["register_usage"](), RV770)
        data = program_to_json(program)
        alu = [c for c in program.clauses if isinstance(c, ALUClause)]
        distinct = {b.code for c in alu for b in c.bundles}
        assert sum(len(c.bundles) for c in alu) > len(distinct)
        assert len(data["bundles"]) == len(distinct)
        assert set(data["bundles"]) == distinct

    def test_shared_and_unshared_bundles_encode_equally(self):
        program = compile_kernel(KERNELS["clause_usage"](), RV770)
        # Fresh, unshared copies of every bundle (not interned).
        copied = tuple(
            ALUClause(
                tuple(
                    Bundle(
                        tuple(
                            ALUOp(op.slot, op.op, op.dest, op.sources)
                            for op in b.ops
                        )
                    )
                    for b in c.bundles
                )
            )
            if isinstance(c, ALUClause) else c
            for c in program.clauses
        )
        assert not any(
            a is b
            for ca, cb in zip(copied, program.clauses)
            if isinstance(ca, ALUClause)
            for a, b in zip(ca.bundles, cb.bundles)
        )
        unshared = dataclasses.replace(program, clauses=copied)
        assert json.dumps(program_to_json(unshared)) == json.dumps(
            program_to_json(program)
        )
