"""The compile driver: IL kernel -> ISA program."""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.il.validate import validate_kernel
from repro.isa.program import ISAProgram


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
    verify: bool = True,
) -> ISAProgram:
    """Lower an IL kernel to a clause-structured ISA program.

    ``gpu`` (or explicit ``options``) supplies the clause-size limits; the
    defaults match all three chips in the paper, so figure-generation code
    may omit it.

    Every compile runs the :mod:`repro.verify` stack: each pass is
    differentially validated (seeded functional execution before/after)
    and the lowered program must pass the ISA legality checks and match
    the IL executor bit-for-bit, else a
    :class:`repro.verify.PassValidationError` or
    :class:`repro.verify.VerificationError` is raised.  ``verify=False``
    is for the front ends that report findings instead of raising
    (``repro.verify.lint_kernel`` and ``repro ska``); they run the same
    checks themselves.
    """
    if options is None:
        options = CompileOptions.for_gpu(gpu) if gpu is not None else CompileOptions()

    with telemetry.span(
        "compile",
        kernel=kernel.name,
        mode=kernel.mode.value,
        gpu=gpu.chip if gpu is not None else None,
    ) as span:
        validate_kernel(kernel)
        original = kernel
        case = None
        index = build_defuse(kernel.body)
        kernel, _removed = eliminate_dead_code(kernel, index)
        if kernel is not original:
            if verify:
                from repro.verify.differential import (
                    PassValidationError,
                    check_il_pass,
                    seeded_case,
                )

                # One seeded test vector serves every differential check
                # of this compile (DCE validation and the lowering check):
                # the inputs depend only on the kernel name, which DCE
                # preserves, and the original kernel's outputs, executed
                # here, are kept on it for the lowering check.
                case = seeded_case(original)
                drift = check_il_pass(
                    original, kernel, "eliminate_dead_code", case=case
                )
                if drift:
                    raise PassValidationError(
                        "differential validation of pass "
                        "'eliminate_dead_code' failed:\n"
                        + "\n".join(f"  {d}" for d in drift)
                    )
            # DCE cannot invalidate the kernel (stores are roots), but
            # re-check in case a pathological kernel stored an input that
            # fed nothing else.  An unchanged kernel passed above.
            validate_kernel(kernel)
            index = build_defuse(kernel.body)

        proto: list[ProtoClause] = []
        for segment in form_segments(kernel):
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

        program = allocate(kernel, proto, index)
        if verify:
            from repro.verify.engine import verify_compiled

            with telemetry.span(
                "verify", kernel=kernel.name, mode=kernel.mode.value
            ):
                verify_compiled(
                    original,
                    program,
                    max_tex_per_clause=options.max_tex_per_clause,
                    max_alu_per_clause=options.max_alu_per_clause,
                    case=case,
                )
        if span:
            span.set(
                gprs=program.gpr_count,
                clauses=len(program.clauses),
                dce_removed=_removed,
            )
            registry = telemetry.metrics()
            registry.counter("compile.kernels").inc()
            registry.counter("compile.dce_removed").inc(_removed)
            registry.histogram("compile.gprs").observe(program.gpr_count)
            registry.histogram("compile.clauses").observe(
                len(program.clauses)
            )
    return program
