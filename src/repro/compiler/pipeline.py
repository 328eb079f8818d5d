"""The compile driver: IL kernel -> ISA program."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import telemetry
from repro.compiler.clauses import (
    ALUSegment,
    FetchSegment,
    StoreSegment,
    chunk,
    form_segments,
)
from repro.compiler.defuse import build_defuse
from repro.compiler.errors import CompileError
from repro.compiler.optimize import eliminate_dead_code
from repro.compiler.regalloc import (
    ProtoALUClause,
    ProtoClause,
    ProtoExportClause,
    ProtoTexClause,
    allocate,
)
from repro.compiler.vliw import pack_bundles
from repro.arch.specs import GPUSpec
from repro.il.module import ILKernel
from repro.il.validate import ILValidationError, validate_kernel
from repro.isa.program import ISAProgram

if TYPE_CHECKING:
    from repro.verify.diagnostics import Diagnostic


@dataclass(frozen=True)
class CompileOptions:
    """Clause-size limits; defaults match the R700 family."""

    max_tex_per_clause: int = 8
    max_alu_per_clause: int = 128

    @classmethod
    def for_gpu(cls, gpu: GPUSpec) -> "CompileOptions":
        return cls(
            max_tex_per_clause=gpu.max_tex_per_clause,
            max_alu_per_clause=gpu.max_alu_per_clause,
        )


def compile_kernel(
    kernel: ILKernel,
    gpu: GPUSpec | None = None,
    options: CompileOptions | None = None,
) -> ISAProgram:
    """Lower an IL kernel to a clause-structured ISA program.

    ``gpu`` (or explicit ``options``) supplies the clause-size limits; the
    defaults match all three chips in the paper, so figure-generation code
    may omit it.

    Runs :func:`checked_compile` and raises its first error, so every
    compile is verified.  With telemetry on, it counts the kernel and its
    findings.
    """
    program, findings = checked_compile(kernel, gpu, options)
    if telemetry.enabled():
        from repro.verify.engine import count_verified

        count_verified(findings)
    raise_first_error(kernel, findings)
    return program


def checked_compile(
    kernel: ILKernel,
    gpu: GPUSpec | None = None,
    options: CompileOptions | None = None,
) -> tuple[ISAProgram | None, list[Diagnostic]]:
    """Lower ``kernel``, checking each stage once, and return the findings.

    The stages: the IL error checks (``validate_kernel``); dead-code
    elimination, whose result must fetch every input the kernel fetches
    (V014) and pass its differential check (V201/V202); lowering, then
    :func:`repro.verify.verify_compiled`.  Returns the program and every
    finding without raising for a defect.  The program is ``None`` when
    the kernel itself is at fault (IL errors or V014).  A DCE result that
    fails its check is dropped and the kernel as written is lowered, so
    the post-lowering findings are the lowering's own.  Lowering may
    still raise :class:`CompileError` (a resource limit).
    """
    from repro.verify.differential import check_il_pass, seeded_case
    from repro.verify.engine import verify_compiled
    from repro.verify.il_checks import check_dead_inputs

    if options is None:
        options = CompileOptions.for_gpu(gpu) if gpu is not None else CompileOptions()

    with telemetry.span(
        "compile",
        kernel=kernel.name,
        mode=kernel.mode.value,
        gpu=gpu.chip if gpu is not None else None,
    ) as span:
        try:
            validate_kernel(kernel)
        except ILValidationError as exc:
            return None, list(exc.diagnostics)
        findings: list[Diagnostic] = []
        case = None
        index = build_defuse(kernel.body)
        optimized, removed = eliminate_dead_code(kernel, index)
        if optimized is not kernel:
            findings = check_dead_inputs(kernel, optimized)
            if findings:
                return None, findings
            # One seeded test vector (inputs from the kernel name, which
            # DCE keeps; the original's outputs once run) serves both
            # differential checks.
            case = seeded_case(kernel)
            findings = check_il_pass(
                kernel, optimized, "eliminate_dead_code", case=case
            )
            if findings:
                optimized, removed = kernel, 0
            else:
                index = build_defuse(optimized.body)

        proto: list[ProtoClause] = []
        for segment in form_segments(optimized):
            if isinstance(segment, FetchSegment):
                for group in chunk(segment.fetches, options.max_tex_per_clause):
                    proto.append(ProtoTexClause(group))
            elif isinstance(segment, ALUSegment):
                bundles = pack_bundles(segment.instructions, index, segment.start)
                for group in chunk(bundles, options.max_alu_per_clause):
                    proto.append(ProtoALUClause(group))
            elif isinstance(segment, StoreSegment):
                proto.append(ProtoExportClause(segment.stores))
            else:  # pragma: no cover - defensive
                raise CompileError(f"unknown segment {segment!r}")

        program = allocate(optimized, proto, index)
        with telemetry.span(
            "verify", kernel=kernel.name, mode=kernel.mode.value
        ):
            findings += verify_compiled(
                kernel,
                program,
                options.max_tex_per_clause,
                options.max_alu_per_clause,
                case,
            )
        if span:
            span.set(
                gprs=program.gpr_count,
                clauses=len(program.clauses),
                dce_removed=removed,
            )
            registry = telemetry.metrics()
            registry.counter("compile.kernels").inc()
            registry.counter("compile.dce_removed").inc(removed)
            registry.histogram("compile.gprs").observe(program.gpr_count)
            registry.histogram("compile.clauses").observe(
                len(program.clauses)
            )
    return program, findings


def raise_first_error(kernel: ILKernel, findings: list[Diagnostic]) -> None:
    """Raise for the first error among ``findings``, by the stage that
    found it: :class:`ILValidationError` (the kernel's fault),
    :class:`~repro.verify.PassValidationError` (DCE's) or
    :class:`~repro.verify.VerificationError` (the lowered program's)."""
    from repro.verify.diagnostics import errors

    failures = errors(findings)
    if not failures:
        return
    first = failures[0]
    if first.code.startswith("V0"):
        raise ILValidationError(first.message, tuple(failures))
    if first.code in ("V201", "V202"):  # the DCE check finds at most one
        from repro.verify.differential import PassValidationError

        raise PassValidationError(
            "differential validation of pass 'eliminate_dead_code' "
            f"failed:\n  {first}"
        )
    from repro.verify.engine import VerificationError

    raise VerificationError(
        f"kernel {kernel.name!r} failed post-compile verification:\n"
        + "\n".join(f"  {d}" for d in failures),
        tuple(findings),
    )
