"""Tests for the repro.verify static-analysis framework.

Covers the diagnostic engine, hand-built known-bad IL kernels and ISA
programs (one per diagnostic code), the GPR cross-check, differential
pass validation (including an intentionally broken optimization pass),
and the property that every kernel generator compiles verifier-clean.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import RV670, RV770, RV870
from repro.compiler import compile_kernel
from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    Operand,
    position,
    temp,
    SampleInstruction,
)
from repro.il.module import ILKernel, InputDecl, OutputDecl
from repro.il.parser import parse_il
from repro.il.opcodes import ILOp
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.il.validate import ILValidationError, validate_kernel
from repro.isa.clauses import (
    ALUClause,
    ALUOp,
    Bundle,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
    ValueLocation,
)
from repro.isa.interp import execute_program
from repro.isa.program import ISAProgram
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)
from repro.sim.functional import execute_kernel
from repro.verify.dataflow import GPRInterval, gpr_live_intervals
from repro.verify.diagnostics import errors
from repro.verify.il_checks import error_checks
from repro.verify import (
    CODE_CATALOG,
    Diagnostic,
    PassValidationError,
    Severity,
    SourceLocation,
    VerificationError,
    check_il_pass,
    check_kernel,
    check_lowering,
    check_program,
    diag,
    format_diagnostics,
    lint_kernel,
    max_live_gprs,
    recomputed_gpr_count,
    seeded_constants,
    seeded_inputs,
)


# ---- kernel construction helpers -------------------------------------------

def make_kernel(
    body,
    inputs=1,
    outputs=1,
    mode=ShaderMode.PIXEL,
    name="handmade",
) -> ILKernel:
    """Build an ILKernel directly (no validation) for known-bad tests."""
    return ILKernel(
        name=name,
        mode=mode,
        dtype=DataType.FLOAT,
        inputs=tuple(
            InputDecl(i, MemorySpace.TEXTURE, DataType.FLOAT)
            for i in range(inputs)
        ),
        outputs=tuple(
            OutputDecl(i, MemorySpace.COLOR_BUFFER, DataType.FLOAT)
            for i in range(outputs)
        ),
        body=tuple(body),
    )


def sample(dest_index, resource):
    return SampleInstruction(temp(dest_index), resource, Operand(position()))


def add(dest_index, a, b):
    return ALUInstruction(
        ILOp.ADD, temp(dest_index), (Operand(temp(a)), Operand(temp(b)))
    )


def export(target, source_index):
    return ExportInstruction(target, Operand(temp(source_index)))


def codes(diagnostics) -> set[str]:
    return {d.code for d in diagnostics}


def force(cls, **fields):
    """Construct a frozen dataclass bypassing ``__post_init__``."""
    obj = object.__new__(cls)
    for key, value in fields.items():
        object.__setattr__(obj, key, value)
    return obj


# ---- the diagnostic engine -------------------------------------------------

class TestDiagnosticEngine:
    def test_catalog_has_enough_codes(self):
        assert len(CODE_CATALOG) >= 8

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("V999", Severity.ERROR, "nope")

    def test_diag_defaults_severity_from_catalog(self):
        assert diag("V008", "x").severity is Severity.WARNING
        assert diag("V004", "x").severity is Severity.ERROR

    def test_str_includes_code_severity_location(self):
        d = diag("V004", "bad read", SourceLocation("il", instruction=3))
        assert "V004" in str(d)
        assert "error" in str(d)
        assert "il:3" in str(d)

    def test_format_orders_errors_first(self):
        report = format_diagnostics(
            [diag("V008", "warn here"), diag("V004", "error here")]
        )
        assert report.index("V004") < report.index("V008")
        assert "1 error(s), 1 warning(s)" in report

    def test_to_json_round_trips_location(self):
        d = diag(
            "V102", "escape", SourceLocation("isa", clause=2, bundle=5)
        )
        record = d.to_json()
        assert record["code"] == "V102"
        assert record["location"] == {"unit": "isa", "clause": 2, "bundle": 5}


# ---- IL-level known-bad kernels --------------------------------------------

#: an ALU op writes an output register and the next reads it back.  DCE
#: keeps only temporaries live, so it used to drop the ``o2`` write, leave
#: input 1 unused and crash ``repro lint`` on the post-DCE validation.
ALU_OUTPUT_IL = """\
il_ps_2_0
dcl_input_position_interp(linear_noperspective) v0.xy__
dcl_resource_id(0)_type(2d,unnorm)_fmt(float)
dcl_resource_id(1)_type(2d,unnorm)_fmt(float)
dcl_output_generic o0
sample_resource(0)_sampler(0) r0, v0
sample_resource(1)_sampler(1) r1, v0
add o2, r0, r1
add r2, o2, r0
mov o0, r2
end
"""

#: input 0 declared twice, with two formats.  Both declarations used to
#: lint clean; binding then failed with ``input 0 expects float, got
#: float4``, and a repeated output silently lost one of its resources.
DUPLICATE_INPUT_IL = """\
il_ps_2_0
dcl_input_position_interp(linear_noperspective) v0.xy__
dcl_resource_id(0)_type(2d,unnorm)_fmt(float)
dcl_resource_id(0)_type(2d,unnorm)_fmt(float4)
dcl_output_generic o0
sample_resource(0)_sampler(0) r0, v0
mov o0, r0
end
"""

#: known-bad IL kernels, by the error each was written to show.
INVALID_KERNELS = {
    "V001": lambda: make_kernel([sample(0, 0)], inputs=1, outputs=0),
    "V001-empty": lambda: make_kernel([], inputs=0, outputs=0),
    "V002": lambda: make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1)], mode=ShaderMode.COMPUTE
    ),
    "V004": lambda: make_kernel([sample(0, 0), add(1, 0, 7), export(0, 1)]),
    "V005": lambda: make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1)], inputs=2
    ),
    "V006": lambda: make_kernel(
        [sample(0, 0), sample(1, 1), add(2, 0, 0), export(0, 2)], inputs=2
    ),
    "V007": lambda: make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1)], outputs=2
    ),
    "V009": lambda: make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1), add(2, 1, 1)]
    ),
    "V011": lambda: parse_il(ALU_OUTPUT_IL),
    "V012": lambda: parse_il(DUPLICATE_INPUT_IL),
    "V013": lambda: make_kernel(
        [sample(0, 0), sample(1, 1), add(2, 0, 1), export(0, 2)]
    ),
    "V013-output": lambda: make_kernel(
        [sample(0, 0), add(1, 0, 0), export(0, 1), export(1, 1)]
    ),
    "collect-all": lambda: make_kernel(
        [add(1, 7, 7), export(0, 1)], inputs=1, outputs=2
    ),
}


class TestILDiagnostics:
    def test_v001_no_outputs(self):
        kernel = INVALID_KERNELS["V001"]()
        assert "V001" in codes(check_kernel(kernel))

    def test_v002_color_output_in_compute(self):
        kernel = INVALID_KERNELS["V002"]()
        assert "V002" in codes(check_kernel(kernel))

    def test_v004_uninitialized_read(self):
        kernel = INVALID_KERNELS["V004"]()
        found = check_kernel(kernel)
        assert "V004" in codes(found)
        v004 = next(d for d in found if d.code == "V004")
        assert v004.location.instruction == 1
        assert "r7" in v004.message

    def test_v005_input_never_fetched(self):
        kernel = INVALID_KERNELS["V005"]()
        assert "V005" in codes(check_kernel(kernel))

    def test_v006_fetched_value_unused(self):
        kernel = INVALID_KERNELS["V006"]()
        assert "V006" in codes(check_kernel(kernel))

    def test_v007_output_never_written(self):
        kernel = INVALID_KERNELS["V007"]()
        assert "V007" in codes(check_kernel(kernel))

    def test_v008_dead_write_is_warning(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        found = check_kernel(kernel)
        assert "V008" in codes(found)
        v008 = next(d for d in found if d.code == "V008")
        assert v008.severity is Severity.WARNING
        assert v008.location.instruction == 2
        # warnings do not fail the strict validator
        validate_kernel(kernel)

    def test_v009_instruction_after_terminal_store(self):
        kernel = INVALID_KERNELS["V009"]()
        assert "V009" in codes(check_kernel(kernel))

    def test_v010_output_written_twice(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), export(0, 1), export(0, 1)]
        )
        found = check_kernel(kernel)
        v010 = next(d for d in found if d.code == "V010")
        assert v010.severity is Severity.WARNING

    def test_v011_alu_writes_or_reads_an_output_register(self):
        kernel = INVALID_KERNELS["V011"]()
        found = [d for d in check_kernel(kernel) if d.code == "V011"]
        assert [(d.location.instruction, d.severity) for d in found] == [
            (2, Severity.ERROR),
            (3, Severity.ERROR),
        ]
        assert "writes o2" in found[0].message
        assert "reads o2" in found[1].message
        # Rejected before DCE, and reported (not raised) by the linter.
        with pytest.raises(ILValidationError, match="writes o2"):
            compile_kernel(kernel)
        report = lint_kernel(kernel, RV770)
        assert "V011" in codes(report.diagnostics)
        assert report.exit_code() == 1

    def test_v012_stream_index_declared_twice(self):
        duplicate_output = DUPLICATE_INPUT_IL.replace(
            "dcl_resource_id(0)_type(2d,unnorm)_fmt(float4)\n",
            "dcl_output_generic o0\n",
        )
        for text, kind in (
            (DUPLICATE_INPUT_IL, "input"),
            (duplicate_output, "output"),
        ):
            kernel = parse_il(text)
            found = [d for d in check_kernel(kernel) if d.code == "V012"]
            assert [(d.severity, d.data) for d in found] == [
                (Severity.ERROR, {kind: 0, "declared": 2})
            ]
            # Rejected by every compile, and reported (not raised) by
            # the linter.
            with pytest.raises(ILValidationError, match="declared 2 times"):
                compile_kernel(kernel)
            report = lint_kernel(kernel, RV770)
            assert "V012" in codes(report.diagnostics)
            assert report.exit_code() == 1

    def test_v013_stream_index_never_declared(self):
        for name, data in (
            ("V013", {"input": 1}),
            ("V013-output", {"output": 1}),
        ):
            kernel = INVALID_KERNELS[name]()
            found = [d for d in check_kernel(kernel) if d.code == "V013"]
            assert [(d.severity, d.data) for d in found] == [
                (Severity.ERROR, data)
            ]
            # Rejected by every compile (so no launch executes it), and
            # reported (not raised) by the linter.
            with pytest.raises(ILValidationError, match="never declared"):
                compile_kernel(kernel)
            report = lint_kernel(kernel, RV770)
            assert codes(report.diagnostics) == {"V013"}
            assert report.exit_code() == 1

    def test_collect_all_reports_every_problem(self):
        # Uninitialized read + unused input + unwritten output, at once.
        kernel = INVALID_KERNELS["collect-all"]()
        found = codes(check_kernel(kernel))
        assert {"V004", "V005", "V007"} <= found

    def test_validate_kernel_still_raises_first_error(self):
        kernel = INVALID_KERNELS["V001-empty"]()
        with pytest.raises(ILValidationError, match="no outputs"):
            validate_kernel(kernel)

    def test_clean_kernel_has_no_diagnostics(self):
        kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
        assert check_kernel(kernel) == []

    def test_check_kernel_is_error_checks_plus_dead_writes(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        errs = error_checks(kernel)
        assert "V008" not in codes(errs)
        found = check_kernel(kernel)
        assert found[: len(errs)] == errs
        assert codes(found[len(errs) :]) == {"V008"}


class TestValidateOnce:
    @pytest.mark.parametrize("name", sorted(INVALID_KERNELS))
    def test_raises_first_check_kernel_error(self, name):
        kernel = INVALID_KERNELS[name]()
        expected = errors(check_kernel(kernel))[0].message
        for _ in range(2):  # a failure is never remembered as valid
            with pytest.raises(ILValidationError) as excinfo:
                validate_kernel(kernel)
            assert str(excinfo.value) == expected

    def test_a_kernel_object_is_checked_once(self, monkeypatch):
        import repro.verify.il_checks as il_checks

        kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
        calls = []

        def counting(k, *args):
            calls.append(k)
            return error_checks(k, *args)

        monkeypatch.setattr(il_checks, "error_checks", counting)
        validate_kernel(kernel)
        validate_kernel(kernel)
        compile_kernel(kernel)
        assert calls == [kernel]

    def test_derived_kernels_are_checked_again(self):
        kernel = generate_generic(KernelParams(inputs=4))
        validate_kernel(kernel)
        dropped_store = kernel.with_body(kernel.body[:-1])
        with pytest.raises(ILValidationError, match="never written"):
            compile_kernel(dropped_store)
        no_outputs = dataclasses.replace(kernel, outputs=())
        with pytest.raises(ILValidationError, match="no outputs"):
            compile_kernel(no_outputs)
        compile_kernel(kernel)  # the original stays valid


def _several_at_once() -> ILKernel:
    """An uninitialized read, an unused input, code after the store and a
    twice-written output in one kernel (V004 + V006 + V009 + V010)."""
    return make_kernel(
        [
            sample(0, 0),
            sample(1, 1),
            add(2, 0, 7),
            export(0, 2),
            add(3, 2, 2),
            export(0, 3),
        ],
        inputs=2,
    )


def _global_streams() -> ILKernel:
    """Global loads and stores: the ``loaded``/``global`` wording."""
    pos = Operand(position())
    return ILKernel(
        name="globals",
        mode=ShaderMode.COMPUTE,
        dtype=DataType.FLOAT,
        inputs=tuple(
            InputDecl(i, MemorySpace.GLOBAL, DataType.FLOAT) for i in range(3)
        ),
        outputs=tuple(
            OutputDecl(i, MemorySpace.GLOBAL, DataType.FLOAT) for i in range(2)
        ),
        body=(
            GlobalLoadInstruction(temp(0), pos, offset=0),
            GlobalLoadInstruction(temp(1), pos, offset=1),
            add(2, 0, 0),
            GlobalStoreInstruction(pos, Operand(temp(2)), offset=0),
            GlobalStoreInstruction(pos, Operand(temp(2)), offset=0),
        ),
    )


def _fetch_address_from_a_fetch() -> ILKernel:
    """A fetch address is not a use: input 0 only feeds the address of
    the second fetch (V006)."""
    return make_kernel(
        [
            sample(0, 0),
            SampleInstruction(temp(1), 1, Operand(temp(0))),
            add(2, 1, 1),
            export(0, 2),
        ],
        inputs=2,
    )


IL_PINNED_CASES = {
    **INVALID_KERNELS,
    "several": _several_at_once,
    "globals": _global_streams,
    "fetch-address": _fetch_address_from_a_fetch,
}

_NO_OUTPUTS = (
    "V001 error: kernel 'handmade' has no outputs; the CAL compiler would "
    "eliminate it entirely (paper §III)"
)

#: ``check_kernel`` findings per case, in order: ``(str(d), d.data)``.
#: ``error_checks`` gives the same list without the trailing V008s.
IL_PINNED = {
    "V001": [
        (_NO_OUTPUTS, {}),
        (
            "V006 error: kernel 'handmade': input 0 is sampled into r0 but "
            "the value is never used (paper §III)",
            {"input": 0, "register": "r0"},
        ),
        (
            "V008 warning [il:0]: kernel 'handmade': instruction 0 "
            "(sample_resource(0)_sampler(0) r0, v0) computes a value that "
            "never reaches an output (DCE would remove it)",
            {},
        ),
    ],
    "V001-empty": [(_NO_OUTPUTS, {})],
    "V002": [
        (
            "V002 error: kernel 'handmade': compute shader mode cannot write "
            "color buffers (output 0, paper §III-C)",
            {"output": 0},
        ),
    ],
    "V004": [
        (
            "V004 error [il:1]: kernel 'handmade': instruction 1 "
            "(add r1, r0, r7) reads r7 before it is written",
            {"register": "r7"},
        ),
    ],
    "V005": [
        (
            "V005 error: kernel 'handmade': input 1 is never sampled; the "
            "CAL compiler would optimize it out (paper §III)",
            {"input": 1},
        ),
    ],
    "V006": [
        (
            "V006 error: kernel 'handmade': input 1 is sampled into r1 but "
            "the value is never used (paper §III)",
            {"input": 1, "register": "r1"},
        ),
        (
            "V008 warning [il:1]: kernel 'handmade': instruction 1 "
            "(sample_resource(1)_sampler(1) r1, v0) computes a value that "
            "never reaches an output (DCE would remove it)",
            {},
        ),
    ],
    "V007": [
        (
            "V007 error: kernel 'handmade': color output 1 is never written",
            {"output": 1},
        ),
    ],
    "V009": [
        (
            "V009 error [il:3]: kernel 'handmade': instruction 3 "
            "(add r2, r1, r1) follows the store at 2; exports terminate the "
            "program",
            {},
        ),
        (
            "V008 warning [il:3]: kernel 'handmade': instruction 3 "
            "(add r2, r1, r1) computes a value that never reaches an output "
            "(DCE would remove it)",
            {},
        ),
    ],
    "V011": [
        (
            "V011 error [il:2]: kernel 'parsed': instruction 2 "
            "(add o2, r0, r1) writes o2; ALU results go to temporaries (rN)",
            {"register": "o2"},
        ),
        (
            "V011 error [il:3]: kernel 'parsed': instruction 3 "
            "(add r2, o2, r0) reads o2; output registers are write-only",
            {"register": "o2"},
        ),
        (
            "V008 warning [il:1]: kernel 'parsed': instruction 1 "
            "(sample_resource(1)_sampler(1) r1, v0) computes a value that "
            "never reaches an output (DCE would remove it)",
            {},
        ),
        (
            "V008 warning [il:2]: kernel 'parsed': instruction 2 "
            "(add o2, r0, r1) computes a value that never reaches an output "
            "(DCE would remove it)",
            {},
        ),
    ],
    "V012": [
        (
            "V012 error: kernel 'parsed': input 0 is declared 2 times; each "
            "stream index is declared once",
            {"input": 0, "declared": 2},
        ),
    ],
    "V013": [
        (
            "V013 error [il:1]: kernel 'handmade': instruction 1 "
            "(sample_resource(1)_sampler(1) r1, v0) names input 1, which is "
            "never declared",
            {"input": 1},
        ),
    ],
    "V013-output": [
        (
            "V013 error [il:3]: kernel 'handmade': instruction 3 "
            "(mov o1, r1) names output 1, which is never declared",
            {"output": 1},
        ),
    ],
    "collect-all": [
        (
            "V004 error [il:0]: kernel 'handmade': instruction 0 "
            "(add r1, r7, r7) reads r7 before it is written",
            {"register": "r7"},
        ),
    ]
    * 2
    + [
        (
            "V005 error: kernel 'handmade': input 0 is never sampled; the "
            "CAL compiler would optimize it out (paper §III)",
            {"input": 0},
        ),
        (
            "V007 error: kernel 'handmade': color output 1 is never written",
            {"output": 1},
        ),
    ],
    "several": [
        (
            "V004 error [il:2]: kernel 'handmade': instruction 2 "
            "(add r2, r0, r7) reads r7 before it is written",
            {"register": "r7"},
        ),
        (
            "V006 error: kernel 'handmade': input 1 is sampled into r1 but "
            "the value is never used (paper §III)",
            {"input": 1, "register": "r1"},
        ),
        (
            "V010 warning: kernel 'handmade': color output 0 is written 2 "
            "times; only the last store survives",
            {"output": 0, "writes": 2},
        ),
        (
            "V009 error [il:4]: kernel 'handmade': instruction 4 "
            "(add r3, r2, r2) follows the store at 3; exports terminate the "
            "program",
            {},
        ),
        (
            "V008 warning [il:1]: kernel 'handmade': instruction 1 "
            "(sample_resource(1)_sampler(1) r1, v0) computes a value that "
            "never reaches an output (DCE would remove it)",
            {},
        ),
    ],
    "fetch-address": [
        (
            "V006 error: kernel 'handmade': input 0 is sampled into r0 but "
            "the value is never used (paper §III)",
            {"input": 0, "register": "r0"},
        ),
    ],
    "globals": [
        (
            "V006 error: kernel 'globals': input 1 is loaded into r1 but the "
            "value is never used (paper §III)",
            {"input": 1, "register": "r1"},
        ),
        (
            "V005 error: kernel 'globals': input 2 is never loaded; the CAL "
            "compiler would optimize it out (paper §III)",
            {"input": 2},
        ),
        (
            "V010 warning: kernel 'globals': global output 0 is written 2 "
            "times; only the last store survives",
            {"output": 0, "writes": 2},
        ),
        (
            "V007 error: kernel 'globals': global output 1 is never written",
            {"output": 1},
        ),
        (
            "V008 warning [il:1]: kernel 'globals': instruction 1 "
            "(mov r1, g[v0 + 1]) computes a value that never reaches an "
            "output (DCE would remove it)",
            {},
        ),
    ],
}


class TestPinnedILDiagnostics:
    """IL findings verbatim: code, severity, location, message, data and
    order, for ``check_kernel`` and for ``error_checks``."""

    def test_every_case_is_pinned(self):
        assert sorted(IL_PINNED) == sorted(IL_PINNED_CASES)

    @pytest.mark.parametrize("name", sorted(IL_PINNED_CASES))
    def test_check_kernel_findings(self, name):
        found = check_kernel(IL_PINNED_CASES[name]())
        assert [(str(d), d.data) for d in found] == IL_PINNED[name]

    @pytest.mark.parametrize("name", sorted(IL_PINNED_CASES))
    def test_error_checks_findings(self, name):
        found = error_checks(IL_PINNED_CASES[name]())
        assert [(str(d), d.data) for d in found] == [
            pin for pin in IL_PINNED[name] if not pin[0].startswith("V008")
        ]


# ---- ISA-level known-bad programs ------------------------------------------

def gpr(index, negate=False):
    return Value(ValueLocation.GPR, index, negate)


def ctemp(index):
    return Value(ValueLocation.CLAUSE_TEMP, index)


def mov(slot, dest, source):
    return ALUOp(slot, ILOp.MOV, dest, (source,))


def make_program(clauses, gpr_count=2, clause_temp_count=0):
    kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
    return ISAProgram(
        kernel=kernel,
        clauses=tuple(clauses),
        gpr_count=gpr_count,
        clause_temp_count=clause_temp_count,
    )


def tex_fetch(dest_index, resource=0, space=MemorySpace.TEXTURE):
    return FetchInstr(gpr(dest_index), resource, space)


def store(source, target=0):
    return StoreInstr(target, MemorySpace.COLOR_BUFFER, source)


class TestISADiagnostics:
    def test_v101_non_terminal_export_clause(self):
        program = make_program(
            [
                ExportClause((store(gpr(0)),)),
                ExportClause((store(gpr(0)),)),
            ]
        )
        assert "V101" in codes(check_program(program))

    def test_v101_program_not_ending_in_export(self):
        # ISAProgram.__post_init__ enforces the terminal export, so build
        # the illegal shape by bypassing it.
        legal = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        broken = force(
            ISAProgram,
            kernel=legal.kernel,
            clauses=(TEXClause((tex_fetch(1),)),),
            gpr_count=2,
            clause_temp_count=0,
        )
        assert "V101" in codes(check_program(broken))

    def test_v102_clause_temp_read_without_definition(self):
        program = make_program(
            [
                ALUClause((Bundle((mov("x", gpr(1), ctemp(0)),)),)),
                ExportClause((store(gpr(1)),)),
            ],
            clause_temp_count=1,
        )
        assert "V102" in codes(check_program(program))

    def test_v102_clause_temp_escaping_to_export(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause((Bundle((mov("x", ctemp(0), gpr(1)),)),)),
                ExportClause((store(ctemp(0)),)),
            ],
            clause_temp_count=1,
        )
        assert "V102" in codes(check_program(program))

    def test_v103_pv_read_in_first_bundle(self):
        program = make_program(
            [
                ALUClause(
                    (
                        Bundle(
                            (
                                mov(
                                    "x",
                                    gpr(1),
                                    Value(ValueLocation.PREVIOUS_VECTOR, 0),
                                ),
                            )
                        ),
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ]
        )
        assert "V103" in codes(check_program(program))

    def test_v104_transcendental_outside_t_slot(self):
        # ALUOp.__post_init__ enforces the t-slot rule, so force the
        # illegal op to prove the verifier recomputes it independently.
        bad_op = force(
            ALUOp,
            slot="x",
            op=ILOp.SIN,
            dest=gpr(1),
            sources=(Value(ValueLocation.POSITION, 0),),
        )
        program = make_program(
            [
                ALUClause((Bundle((bad_op,)),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        assert "V104" in codes(check_program(program))

    def test_v104_duplicate_slots(self):
        dup = force(
            Bundle,
            ops=(
                mov("x", gpr(1), Value(ValueLocation.POSITION, 0)),
                mov("x", gpr(2), Value(ValueLocation.POSITION, 0)),
            ),
        )
        program = make_program(
            [
                ALUClause((dup,)),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        assert "V104" in codes(check_program(program))

    def test_v105_same_bundle_gpr_read(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1), tex_fetch(2, resource=1))),
                ALUClause(
                    (
                        Bundle(
                            (
                                mov("x", gpr(2), gpr(1)),
                                mov("y", gpr(3), gpr(2)),  # same-bundle read
                            )
                        ),
                    )
                ),
                ExportClause((store(gpr(3)),)),
            ],
            gpr_count=4,
        )
        found = check_program(program)
        v105 = next(d for d in found if d.code == "V105")
        assert v105.severity is Severity.WARNING

    def test_v106_uninitialized_gpr_read(self):
        program = make_program(
            [
                ALUClause((Bundle((mov("x", gpr(1), gpr(3)),)),)),
                ExportClause((store(gpr(1)),)),
            ]
        )
        found = check_program(program)
        v106 = next(d for d in found if d.code == "V106")
        assert "R3" in v106.message

    def test_v107_dead_isa_write(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause(
                    (
                        Bundle((mov("x", gpr(2), gpr(1)),)),  # R2 never read
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        found = check_program(program)
        v107 = next(d for d in found if d.code == "V107")
        assert v107.severity is Severity.WARNING
        assert "R2" in v107.message

    def test_v108_gpr_count_mismatch(self, simple_program):
        inflated = dataclasses.replace(
            simple_program, gpr_count=simple_program.gpr_count + 3
        )
        found = check_program(inflated)
        v108 = next(d for d in found if d.code == "V108")
        assert v108.data["recomputed"] == simple_program.gpr_count

    def test_v109_oversized_clause(self):
        fetches = tuple(tex_fetch(i + 1, resource=i) for i in range(4))
        program = make_program(
            [
                TEXClause(fetches),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=5,
        )
        found = check_program(program, max_tex_per_clause=2)
        v109 = next(d for d in found if d.code == "V109")
        assert v109.severity is Severity.WARNING

    def test_v110_mixed_space_tex_clause(self):
        program = make_program(
            [
                TEXClause(
                    (
                        tex_fetch(1),
                        tex_fetch(2, resource=1, space=MemorySpace.GLOBAL),
                    )
                ),
                ExportClause((store(gpr(1)),)),
            ],
            gpr_count=3,
        )
        assert "V110" in codes(check_program(program))

    def test_v111_clause_temp_beyond_declared_count(self):
        program = make_program(
            [
                TEXClause((tex_fetch(1),)),
                ALUClause((Bundle((mov("x", ctemp(1), gpr(1)),)),)),
                ExportClause((store(gpr(1)),)),
            ],
            clause_temp_count=1,
        )
        assert "V111" in codes(check_program(program))

    def test_compiled_program_is_clean(self, simple_program):
        assert check_program(simple_program) == []


# ---- pinned diagnostics ----------------------------------------------------

def _position():
    return Value(ValueLocation.POSITION, 0)


def _pv(slot, negate=False):
    return Value(ValueLocation.PREVIOUS_VECTOR, slot, negate)


def _ps(negate=False):
    return Value(ValueLocation.PREVIOUS_SCALAR, 0, negate)


def _op(slot, op, dest, *sources):
    return force(ALUOp, slot=slot, op=op, dest=dest, sources=sources)


def _bundle(*ops):
    return force(Bundle, ops=ops)


def _pinned_v101():
    # An export clause with a clause after it; the program ends in ALU.
    program = force(
        ISAProgram,
        kernel=make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)]),
        clauses=(
            TEXClause((tex_fetch(1),)),
            ExportClause((store(gpr(1)),)),
            ALUClause((Bundle((mov("x", gpr(2), gpr(1)),)),)),
        ),
        gpr_count=2,
        clause_temp_count=0,
    )
    return check_program(program)


def _pinned_v102():
    program = make_program(
        [
            TEXClause((tex_fetch(1),)),
            ALUClause(
                (
                    Bundle((mov("x", gpr(2), ctemp(0)),)),
                    Bundle((mov("x", ctemp(0), gpr(1)),)),
                )
            ),
            ALUClause((Bundle((mov("y", gpr(3), ctemp(0)),)),)),
            ExportClause(
                (store(ctemp(0)), store(gpr(2), 1), store(gpr(3), 2))
            ),
        ],
        gpr_count=4,
        clause_temp_count=1,
    )
    return check_program(program)


def _pinned_v103():
    program = make_program(
        [
            TEXClause((tex_fetch(1),)),
            ALUClause(
                (
                    Bundle((mov("x", gpr(2), _pv(0)), mov("y", gpr(3), _ps()))),
                    Bundle(
                        (mov("z", gpr(4), _pv(2)), mov("w", gpr(5), _ps(True)))
                    ),
                    Bundle((ALUOp("t", ILOp.RCP, gpr(6), (gpr(1),)),)),
                    Bundle((mov("x", gpr(7), _ps()), mov("y", gpr(8), _pv(0)))),
                )
            ),
            ExportClause(
                (
                    store(_pv(0, True)),
                    store(_ps(), 1),
                    store(gpr(7), 2),
                    store(gpr(8), 3),
                )
            ),
        ],
        gpr_count=9,
    )
    return check_program(program)


def _pinned_v104():
    six = _bundle(
        *(
            mov(slot, gpr(i + 1), _position())
            for i, slot in enumerate("xyzwt")
        ),
        mov("x", gpr(6), _position()),
    )
    program = make_program(
        [
            ALUClause(
                (
                    six,
                    _bundle(_op("q", ILOp.MOV, gpr(7), gpr(1))),
                    _bundle(_op("y", ILOp.SIN, gpr(8), gpr(2))),
                    _bundle(
                        ALUOp("t", ILOp.RCP, gpr(9), (gpr(3),)),
                        ALUOp("t", ILOp.COS, gpr(10), (gpr(4),)),
                    ),
                )
            ),
            ExportClause((store(gpr(7)), store(gpr(8), 1), store(gpr(9), 2))),
        ],
        gpr_count=11,
    )
    return check_program(program)


def _pinned_v105():
    program = make_program(
        [
            TEXClause((tex_fetch(1), tex_fetch(2, resource=1))),
            ALUClause(
                (
                    Bundle(
                        (
                            mov("x", gpr(2), gpr(1)),
                            mov("y", gpr(3), gpr(2)),
                            ALUOp("t", ILOp.EXP, gpr(1), (gpr(3),)),
                        )
                    ),
                )
            ),
            ExportClause((store(gpr(3)), store(gpr(1), 1))),
        ],
        gpr_count=4,
    )
    return check_program(program)


def _pinned_v106():
    program = make_program(
        [
            ALUClause((Bundle((mov("x", gpr(1), gpr(3, negate=True)),)),)),
            ExportClause((store(gpr(1)), store(gpr(4), 1))),
        ]
    )
    return check_program(program)


def _pinned_v107():
    program = make_program(
        [
            TEXClause((tex_fetch(1),)),
            ALUClause(
                (
                    Bundle((mov("x", gpr(2), gpr(1)),)),
                    Bundle((mov("x", gpr(3), gpr(1)),)),
                    Bundle((mov("x", gpr(3), gpr(1)),)),
                )
            ),
            ExportClause((store(gpr(1)),)),
        ],
        gpr_count=3,
    )
    return check_program(program)


def _pinned_v108():
    program = make_program(
        [TEXClause((tex_fetch(1),)), ExportClause((store(gpr(1)),))],
        gpr_count=5,
    )
    return check_program(program)


def _pinned_v109():
    program = make_program(
        [
            TEXClause(tuple(tex_fetch(i + 1, resource=i) for i in range(3))),
            ALUClause(
                tuple(
                    Bundle((mov("x", gpr(4), gpr(i + 1)),)) for i in range(3)
                )
            ),
            ExportClause((store(gpr(4)),)),
        ],
        gpr_count=4,
    )
    return check_program(program, max_tex_per_clause=2, max_alu_per_clause=2)


def _pinned_v110():
    program = make_program(
        [
            TEXClause(
                (
                    tex_fetch(1),
                    tex_fetch(2, resource=1, space=MemorySpace.GLOBAL),
                    FetchInstr(ctemp(0), 2, MemorySpace.TEXTURE),
                )
            ),
            ALUClause((Bundle((mov("x", gpr(3), gpr(1)),)),)),
            ExportClause(
                (
                    store(gpr(2)),
                    StoreInstr(1, MemorySpace.GLOBAL, gpr(3)),
                )
            ),
        ],
        gpr_count=4,
        clause_temp_count=1,
    )
    return check_program(program)


def _pinned_v111():
    program = make_program(
        [
            TEXClause((tex_fetch(1),)),
            ALUClause(
                (
                    Bundle((mov("x", ctemp(2), gpr(1)),)),
                    Bundle(
                        (mov("x", gpr(2), ctemp(2)), mov("y", ctemp(1), gpr(1)))
                    ),
                    Bundle((mov("x", gpr(3), ctemp(1)),)),
                )
            ),
            ExportClause((store(gpr(2)), store(gpr(3), 1))),
        ],
        gpr_count=4,
        clause_temp_count=1,
    )
    return check_program(program)


def _pinned_v203():
    kernel = make_kernel([sample(0, 0), add(1, 0, 0), export(0, 1)])
    program = compile_kernel(kernel)
    exp = program.clauses[-1]

    def storing(source):
        stores = (dataclasses.replace(exp.stores[0], source=source),)
        return dataclasses.replace(
            program,
            clauses=program.clauses[:-1]
            + (dataclasses.replace(exp, stores=stores),),
        )

    return check_lowering(kernel, storing(_position())) + check_lowering(
        kernel, storing(gpr(9))
    )


#: one forced-illegal program per ISA code: the checks it runs.
PINNED_CASES = {
    "V101": _pinned_v101,
    "V102": _pinned_v102,
    "V103": _pinned_v103,
    "V104": _pinned_v104,
    "V105": _pinned_v105,
    "V106": _pinned_v106,
    "V107": _pinned_v107,
    "V108": _pinned_v108,
    "V109": _pinned_v109,
    "V110": _pinned_v110,
    "V111": _pinned_v111,
    "V203": _pinned_v203,
}

#: every finding of each case, in order, as ``str(d)`` renders it.
PINNED = {
    "V101": [
        (
            "V101 error [isa:clause 1]: clause 1 is an export clause but 1 "
            "clause(s) follow it; EXP_DONE terminates the program"
        ),
        (
            "V101 error [isa:clause 2]: program ends with ALUClause, not an"
            " export clause"
        ),
        (
            "V107 warning: R2 written at position 2 is never read (dead "
            "write)"
        ),
        (
            "V108 error: register allocator reports gpr_count=2 but "
            "max-live recomputation gives 3; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V102": [
        (
            "V102 error [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads T0 with no definition in this clause; clause temps do "
            "not survive clause boundaries (§II-A)"
        ),
        (
            "V102 error [isa:clause 2, bundle 0]: bundle 0 of clause 2 "
            "reads T0 with no definition in this clause; clause temps do "
            "not survive clause boundaries (§II-A)"
        ),
        (
            "V102 error [isa:clause 3]: export clause 3 stores T0, but "
            "clause temps die at the clause switch (§II-A)"
        ),
        (
            "V108 error: register allocator reports gpr_count=4 but "
            "max-live recomputation gives 3; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V103": [
        (
            "V103 error [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads PV.x but the previous bundle produced no result in that "
            "slot"
        ),
        (
            "V103 error [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads PS but the previous bundle produced no t-slot result"
        ),
        (
            "V103 error [isa:clause 1, bundle 1]: bundle 1 of clause 1 "
            "reads PV.z but the previous bundle produced no result in that "
            "slot"
        ),
        (
            "V103 error [isa:clause 1, bundle 1]: bundle 1 of clause 1 "
            "reads PS but the previous bundle produced no t-slot result"
        ),
        (
            "V103 error [isa:clause 1, bundle 3]: bundle 3 of clause 1 "
            "reads PV.x but the previous bundle produced no result in that "
            "slot"
        ),
        (
            "V103 error [isa:clause 2]: export clause 2 stores -PV.x, but "
            "PV/PS do not cross the clause boundary"
        ),
        (
            "V103 error [isa:clause 2]: export clause 2 stores PS, but "
            "PV/PS do not cross the clause boundary"
        ),
        (
            "V107 warning: R2 written at position 1 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R3 written at position 1 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R4 written at position 2 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R5 written at position 2 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R6 written at position 3 is never read (dead "
            "write)"
        ),
        (
            "V108 error: register allocator reports gpr_count=9 but "
            "max-live recomputation gives 4; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V104": [
        (
            "V104 error [isa:clause 0, bundle 0]: bundle 0 of clause 0 "
            "co-issues 6 operations; a VLIW word has 5 slots"
        ),
        (
            "V104 error [isa:clause 0, bundle 0]: bundle 0 of clause 0 uses"
            " slot 'x' 2 times"
        ),
        (
            "V104 error [isa:clause 0, bundle 1]: bundle 1 of clause 0: "
            "invalid slot 'q'"
        ),
        (
            "V104 error [isa:clause 0, bundle 2]: bundle 2 of clause 0: sin"
            " is transcendental and must use the t slot, not 'y'"
        ),
        (
            "V104 error [isa:clause 0, bundle 3]: bundle 3 of clause 0 uses"
            " slot 't' 2 times"
        ),
        (
            "V107 warning: R5 written at position 0 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R6 written at position 0 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R10 written at position 3 is never read (dead "
            "write)"
        ),
        (
            "V108 error: register allocator reports gpr_count=11 but "
            "max-live recomputation gives 7; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V105": [
        (
            "V105 warning [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads R1 which a co-issued slot writes; it sees the pre-bundle"
            " value"
        ),
        (
            "V105 warning [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads R2 which a co-issued slot writes; it sees the pre-bundle"
            " value"
        ),
        (
            "V105 warning [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads R3 which a co-issued slot writes; it sees the pre-bundle"
            " value"
        ),
        (
            "V106 error [isa:clause 1, bundle 0]: bundle 0 of clause 1 "
            "reads R3 before any write"
        ),
        (
            "V107 warning: R2 written at position 2 is never read (dead "
            "write)"
        ),
        (
            "V108 error: register allocator reports gpr_count=4 but "
            "max-live recomputation gives 6; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V106": [
        (
            "V106 error [isa:clause 0, bundle 0]: bundle 0 of clause 0 "
            "reads R3 before any write"
        ),
        (
            "V106 error [isa:clause 1]: export clause 1 stores R4 before "
            "any write"
        ),
    ],
    "V107": [
        (
            "V107 warning: R3 written at position 2 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R2 written at position 1 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R3 written at position 3 is never read (dead "
            "write)"
        ),
    ],
    "V108": [
        (
            "V108 error: register allocator reports gpr_count=5 but "
            "max-live recomputation gives 2; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V109": [
        (
            "V109 warning [isa:clause 0]: TEX clause 0 holds 3 fetches; the"
            " hardware limit is 2 per clause"
        ),
        (
            "V109 warning [isa:clause 1]: ALU clause 1 holds 3 bundles; the"
            " hardware limit is 2 per clause"
        ),
        (
            "V107 warning: R4 written at position 3 is never read (dead "
            "write)"
        ),
        (
            "V107 warning: R4 written at position 4 is never read (dead "
            "write)"
        ),
        (
            "V108 error: register allocator reports gpr_count=4 but "
            "max-live recomputation gives 5; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V110": [
        (
            "V110 error [isa:clause 0]: TEX clause 0 mixes texture and "
            "global fetches; a clause issues on one path"
        ),
        (
            "V110 error [isa:clause 0]: TEX clause 0: fetch result lands in"
            " T0, but fetch destinations must be GPRs (clause temps die at "
            "the clause switch)"
        ),
        (
            "V110 error [isa:clause 2]: export clause 2 mixes color-buffer "
            "and global stores"
        ),
    ],
    "V111": [
        (
            "V111 error [isa:clause 1, bundle 0]: clause temporary T2 does "
            "not exist; the hardware provides T0/T1 per wavefront slot"
        ),
        (
            "V111 error [isa:clause 1, bundle 1]: clause temporary T2 does "
            "not exist; the hardware provides T0/T1 per wavefront slot"
        ),
        (
            "V111 error [isa:clause 1, bundle 1]: clause temporary T1 is "
            "used but the program declares clause_temp_count=1"
        ),
        (
            "V111 error [isa:clause 1, bundle 2]: clause temporary T1 is "
            "used but the program declares clause_temp_count=1"
        ),
        (
            "V108 error: register allocator reports gpr_count=4 but "
            "max-live recomputation gives 3; wavefront residency (Figs. "
            "16-17) would be mispredicted"
        ),
    ],
    "V203": [
        (
            "V203 error: lowering changed the output of kernel 'handmade': "
            "output(s) [0] differ between the IL executor and the ISA "
            "interpreter on seeded inputs"
        ),
        (
            "V203 error: kernel 'handmade' failed differential execution: "
            "read of uninitialized R9"
        ),
    ],
}


class TestPinnedDiagnostics:
    """Codes, severities, locations, messages and their order, verbatim."""

    @pytest.mark.parametrize("code", sorted(PINNED_CASES))
    def test_findings_are_pinned(self, code):
        assert [str(d) for d in PINNED_CASES[code]()] == PINNED[code]


# ---- GPR cross-check -------------------------------------------------------

class TestGPRCrossCheck:
    @pytest.mark.parametrize("inputs", [2, 4, 8, 16, 32])
    def test_recomputed_count_matches_regalloc(self, inputs):
        kernel = generate_generic(
            KernelParams(inputs=inputs, alu_fetch_ratio=1.0)
        )
        program = compile_kernel(kernel)
        assert recomputed_gpr_count(program) == program.gpr_count

    @pytest.mark.parametrize("step", [0, 2, 7])
    def test_register_usage_kernels_match(self, step):
        kernel = generate_register_usage(
            KernelParams(inputs=64, space=8, step=step)
        )
        program = compile_kernel(kernel)
        assert recomputed_gpr_count(program) == program.gpr_count

    def test_max_live_excludes_reserved_r0(self, simple_program):
        assert max_live_gprs(simple_program) == simple_program.gpr_count - 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 10), st.integers(0, 3)
            ),
            max_size=24,
        )
    )
    def test_sweep_matches_pairwise_on_random_intervals(self, spans):
        # Small ranges force equal starts, equal ends, zero-length and
        # R0 intervals.  The program is walked only without intervals.
        intervals = [
            GPRInterval(index, start, start + length)
            for index, start, length in spans
        ]
        assert max_live_gprs(None, intervals) == pairwise_max_live(intervals)

    @pytest.mark.parametrize("gpu", [RV670, RV770, RV870], ids=lambda g: g.chip)
    @pytest.mark.parametrize("generator", ["clause", "generic", "register"])
    def test_sweep_matches_pairwise_on_generator_programs(
        self, generator, gpu
    ):
        kernel = GENERATORS[generator](ShaderMode.PIXEL, DataType.FLOAT)
        program = compile_kernel(kernel, gpu)
        intervals = gpr_live_intervals(program)
        expected = pairwise_max_live(intervals)
        assert max_live_gprs(program) == expected
        assert max_live_gprs(program, intervals) == expected
        assert recomputed_gpr_count(program) == program.gpr_count


def pairwise_max_live(intervals: list[GPRInterval]) -> int:
    """The reference definition: largest overlap at any interval's start,
    counted pairwise over closed intervals (R0 excluded)."""
    intervals = [i for i in intervals if i.index != 0]
    best = 0
    for interval in intervals:
        overlap = sum(
            1
            for other in intervals
            if other.start <= interval.start <= other.end
        )
        best = max(best, overlap)
    return best


# ---- differential pass validation ------------------------------------------

def _wrong_op_pass(kernel: ILKernel, _index=None):
    """An intentionally broken pass: rewrites the first ADD into a MUL."""
    body = list(kernel.body)
    for index, instr in enumerate(body):
        if isinstance(instr, ALUInstruction) and instr.op is ILOp.ADD:
            body[index] = ALUInstruction(ILOp.MUL, instr.dest, instr.sources)
            break
    return kernel.with_body(tuple(body)), 1


def _drop_instruction_pass(kernel: ILKernel):
    """A broken pass that deletes a live instruction (breaks validity)."""
    body = [
        instr
        for instr in kernel.body
        if not isinstance(instr, ALUInstruction)
    ]
    return kernel.with_body(tuple(body)), 1


class TestDifferentialValidation:
    def test_seeded_inputs_are_deterministic(self, simple_kernel):
        a = seeded_inputs(simple_kernel)
        b = seeded_inputs(simple_kernel)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert seeded_constants(simple_kernel) == seeded_constants(
            simple_kernel
        )

    def test_identity_pass_is_clean(self, simple_kernel):
        assert check_il_pass(simple_kernel, simple_kernel, "identity") == []

    def test_semantic_drift_detected_v201(self, simple_kernel):
        broken, _ = _wrong_op_pass(simple_kernel)
        found = check_il_pass(simple_kernel, broken, "wrong-op")
        assert codes(found) == {"V201"}

    def test_validity_break_detected_v202(self, simple_kernel):
        broken, _ = _drop_instruction_pass(simple_kernel)
        found = check_il_pass(simple_kernel, broken, "drop-instr")
        assert codes(found) == {"V202"}

    def test_lowering_check_is_clean_for_compiled(self, simple_kernel):
        program = compile_kernel(simple_kernel)
        assert check_lowering(simple_kernel, program) == []

    def test_lowering_drift_detected_v203(self, simple_kernel):
        program = compile_kernel(simple_kernel)
        # Corrupt the terminal export so it stores the position register.
        exp = program.clauses[-1]
        corrupted_store = dataclasses.replace(
            exp.stores[0], source=Value(ValueLocation.POSITION, 0)
        )
        corrupted = dataclasses.replace(
            program,
            clauses=program.clauses[:-1]
            + (dataclasses.replace(exp, stores=(corrupted_store,)),),
        )
        assert "V203" in codes(check_lowering(simple_kernel, corrupted))

    def test_the_original_kernel_executes_once_per_compile(
        self, monkeypatch
    ):
        import repro.sim.functional as functional

        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        executed = []
        real = functional.execute_kernel

        def counting(k, *args, **kwargs):
            executed.append(k)
            return real(k, *args, **kwargs)

        monkeypatch.setattr(functional, "execute_kernel", counting)
        program = compile_kernel(kernel)
        assert len(program.kernel.body) < len(kernel.body)  # DCE shrank it
        # before and after DCE; the lowering check reuses the first
        assert executed == [kernel, program.kernel]

    def test_pipeline_fails_loudly_on_broken_dce(
        self, simple_kernel, monkeypatch
    ):
        import repro.compiler.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "eliminate_dead_code", _wrong_op_pass
        )
        with pytest.raises(PassValidationError, match="eliminate_dead_code"):
            compile_kernel(simple_kernel)

    def test_pipeline_skips_validation_when_verify_off(
        self, simple_kernel, monkeypatch
    ):
        import repro.compiler.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "eliminate_dead_code", _wrong_op_pass
        )
        # verify=False compiles without noticing: the front ends that use
        # it (lint_kernel, repro ska) run the post-lowering checks
        # themselves and report instead of raising.
        program = compile_kernel(simple_kernel, verify=False)
        assert program.gpr_count >= 1


#: Run in a fresh interpreter, without this directory's conftest or any
#: environment variable: a broken DCE pass must fail the plain compile
#: and an inline grid sweep alike.
_FRESH_COMPILE_SCRIPT = """
import repro.compiler.pipeline as pipeline
from repro.arch import RV770
from repro.compiler import compile_kernel
from repro.il.instructions import ALUInstruction
from repro.il.opcodes import ILOp
from repro.kernels import KernelParams, generate_generic
from repro.suite.grid import alu_fetch_grid
from repro.verify import PassValidationError


def wrong_op_pass(kernel, _index=None):
    body = list(kernel.body)
    for i, instr in enumerate(body):
        if isinstance(instr, ALUInstruction) and instr.op is ILOp.ADD:
            body[i] = ALUInstruction(ILOp.MUL, instr.dest, instr.sources)
            break
    return kernel.with_body(tuple(body)), 1


pipeline.eliminate_dead_code = wrong_op_pass
kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
calls = {
    "compile_kernel": lambda: compile_kernel(kernel),
    "alu_fetch_grid": lambda: alu_fetch_grid(
        RV770, inputs=(4,), ratios=(1.0,), domain=(64, 64), iterations=1
    ),
}
for name, call in calls.items():
    try:
        call()
    except PassValidationError:
        print(name, "raised")
    else:
        print(name, "compiled unverified")
"""


def test_every_compile_verifies_in_a_fresh_interpreter():
    # A bare environment: no variable from this shell can switch
    # anything on.
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
    }
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_COMPILE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == [
        "compile_kernel raised",
        "alu_fetch_grid raised",
    ]


# ---- the negate-modifier lowering fix --------------------------------------

class TestNegateLowering:
    def _negate_kernel(self):
        body = (
            sample(0, 0),
            ALUInstruction(
                ILOp.SUB,
                temp(1),
                (Operand(temp(0)), Operand(temp(0), negate=True)),
            ),
            ALUInstruction(
                ILOp.ADD,
                temp(2),
                (Operand(temp(1)), Operand(temp(1))),
            ),
            export(0, 2),
        )
        return make_kernel(body, name="negate_regression")

    def test_negate_survives_lowering(self):
        program = compile_kernel(self._negate_kernel())
        negated = [
            src
            for clause in program.clauses
            if isinstance(clause, ALUClause)
            for bundle in clause.bundles
            for op in bundle.ops
            for src in op.sources
            if src.negate
        ]
        assert negated, "negate modifier was dropped during lowering"

    def test_negate_execution_matches_il(self):
        kernel = self._negate_kernel()
        program = compile_kernel(kernel)
        inputs = seeded_inputs(kernel)
        il_out = execute_kernel(kernel, inputs, (4, 4))
        isa_out = execute_program(program, inputs, (4, 4))
        # r0 - (-r0) == 2*r0; doubled again by the ADD.
        np.testing.assert_array_equal(il_out[0], isa_out[0])
        np.testing.assert_allclose(il_out[0], 4.0 * inputs[0])


# ---- lint entry point ------------------------------------------------------

class TestLintKernel:
    def test_clean_kernel(self, simple_kernel):
        report = lint_kernel(simple_kernel)
        assert report.clean
        assert report.program is not None
        assert report.exit_code() == 0
        assert "clean" in report.format()

    def test_bad_kernel_collects_all(self):
        kernel = make_kernel(
            [add(1, 7, 7), export(0, 1)], inputs=1, outputs=2
        )
        report = lint_kernel(kernel)
        assert not report.clean
        assert report.program is None  # errors stop before lowering
        assert report.error_count >= 3
        assert report.exit_code() == 1
        record = report.to_json()
        assert record["clean"] is False
        assert len(record["diagnostics"]) == len(report.diagnostics)

    def test_warning_only_kernel_strict_gate(self):
        kernel = make_kernel(
            [sample(0, 0), add(1, 0, 0), add(2, 1, 1), export(0, 1)]
        )
        report = lint_kernel(kernel)
        assert report.error_count == 0
        assert report.warning_count >= 1
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1


# ---- every generator is verifier-clean -------------------------------------

GENERATORS = {
    "generic": lambda mode, dtype: generate_generic(
        KernelParams(inputs=4, alu_fetch_ratio=1.0, mode=mode, dtype=dtype)
    ),
    "clause": lambda mode, dtype: generate_clause_usage(
        KernelParams(inputs=4, alu_fetch_ratio=2.0, mode=mode, dtype=dtype)
    ),
    "register": lambda mode, dtype: generate_register_usage(
        KernelParams(inputs=64, space=8, step=4, mode=mode, dtype=dtype)
    ),
}


class TestGeneratorsVerifierClean:
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    @pytest.mark.parametrize(
        "mode", [ShaderMode.PIXEL, ShaderMode.COMPUTE]
    )
    @pytest.mark.parametrize(
        "dtype", [DataType.FLOAT, DataType.FLOAT4]
    )
    def test_kernel_is_verifier_clean(self, generator, mode, dtype):
        kernel = GENERATORS[generator](mode, dtype)
        report = lint_kernel(kernel)
        assert report.clean, report.format()

    @pytest.mark.parametrize("space,step", [(8, 0), (8, 2), (8, 7)])
    def test_register_usage_sweep_clean(self, space, step):
        kernel = generate_register_usage(
            KernelParams(inputs=64, space=space, step=step)
        )
        report = lint_kernel(kernel)
        assert report.clean, report.format()


# ---- shader-mode aliases ---------------------------------------------------

class TestModeAliases:
    def test_ps_cs_aliases(self):
        assert ShaderMode.from_name("ps") is ShaderMode.PIXEL
        assert ShaderMode.from_name("cs") is ShaderMode.COMPUTE
        assert ShaderMode.from_name("Pixel") is ShaderMode.PIXEL

    def test_unknown_mode_still_rejected(self):
        with pytest.raises(ValueError, match="unknown shader mode"):
            ShaderMode.from_name("vertex")


# ---- in-pipeline verification ----------------------------------------------

class TestPipelineVerification:
    def test_verify_compiled_raises_on_corrupted_program(
        self, simple_kernel
    ):
        from repro.verify import verify_compiled

        program = compile_kernel(simple_kernel)
        inflated = dataclasses.replace(
            program, gpr_count=program.gpr_count + 1
        )
        with pytest.raises(VerificationError, match="V108") as excinfo:
            verify_compiled(simple_kernel, inflated)
        assert any(
            d.code == "V108" for d in excinfo.value.diagnostics
        )

    def test_check_compiled_reports_what_verify_compiled_raises(
        self, simple_kernel
    ):
        from repro.verify import check_compiled, verify_compiled

        program = compile_kernel(simple_kernel)
        assert check_compiled(simple_kernel, program) == []
        inflated = dataclasses.replace(
            program, gpr_count=program.gpr_count + 1
        )
        # The report-don't-raise front ends get the same findings the
        # pipeline hook raises on.
        found = check_compiled(simple_kernel, inflated)
        assert "V108" in codes(found)
        with pytest.raises(VerificationError) as excinfo:
            verify_compiled(simple_kernel, inflated)
        assert list(excinfo.value.diagnostics) == found

    def test_verification_error_is_compile_error(self):
        from repro.compiler import CompileError

        assert issubclass(VerificationError, CompileError)
        assert issubclass(PassValidationError, CompileError)

    def test_verify_spans_recorded(self, simple_kernel, tmp_path):
        from repro import telemetry

        manifest = tmp_path / "run.jsonl"
        with telemetry.recording(str(manifest)):
            compile_kernel(simple_kernel)
        names = {
            r["name"]
            for r in telemetry.read_manifest(str(manifest))
            if r["type"] == "span"
        }
        assert "verify" in names
        assert "compile" in names
