"""Verifier entry points: linting and the post-lowering checks.

:func:`lint_kernel`, behind ``repro lint``, runs the IL checks and then
the checked compile (:func:`repro.compiler.pipeline.checked_compile`)
that every ``compile_kernel`` runs, and folds all findings into one
:class:`LintReport`.  :func:`verify_compiled` is that compile's
post-lowering stage: the ISA checks and the differential execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.compiler.errors import CompileError
from repro.il.module import ILKernel
from repro.isa.program import ISAProgram
from repro.verify.diagnostics import (
    Diagnostic,
    diag,
    errors,
    format_diagnostics,
    warnings,
)


class VerificationError(CompileError):
    """A kernel or program failed static verification."""

    def __init__(
        self, message: str, diagnostics: tuple[Diagnostic, ...] = ()
    ) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


# ---- reports ---------------------------------------------------------------

@dataclass(frozen=True)
class LintReport:
    """Everything ``repro lint`` learned about one kernel."""

    kernel: ILKernel
    diagnostics: tuple[Diagnostic, ...]
    program: ISAProgram | None  #: None when compilation failed

    @property
    def error_count(self) -> int:
        return len(errors(list(self.diagnostics)))

    @property
    def warning_count(self) -> int:
        return len(warnings(list(self.diagnostics)))

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def exit_code(self, strict: bool = False) -> int:
        """0 when acceptable; 1 on errors (or, with ``strict``, warnings)."""
        if self.error_count:
            return 1
        if strict and self.warning_count:
            return 1
        return 0

    def format(self) -> str:
        lines = [format_diagnostics(list(self.diagnostics), self.kernel.name)]
        if self.program is not None:
            lines.append(
                f"compiled: {len(self.program.clauses)} clauses, "
                f"{self.program.gpr_count} GPRs, "
                f"{self.program.clause_temp_count} clause temp(s)"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        record: dict = {
            "kernel": self.kernel.name,
            "mode": self.kernel.mode.value,
            "dtype": self.kernel.dtype.value,
            "clean": self.clean,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }
        if self.program is not None:
            record["program"] = {
                "clauses": len(self.program.clauses),
                "gpr_count": self.program.gpr_count,
                "clause_temp_count": self.program.clause_temp_count,
            }
        return record


# ---- entry points ----------------------------------------------------------

def lint_kernel(kernel: ILKernel, gpu=None, options=None) -> LintReport:
    """Run every analysis stage over ``kernel`` and collect all findings.

    Never raises for kernel defects — everything becomes a diagnostic.
    The IL checks run first (:func:`~repro.verify.check_kernel`, warnings
    included).  A kernel without IL errors then goes through the checked
    compile every ``compile_kernel`` runs, whose findings follow; one with
    errors stops there (the compile would only repeat them).  A
    :class:`CompileError` from lowering becomes V100.
    """
    from repro.compiler.pipeline import checked_compile
    from repro.verify.il_checks import check_kernel

    # A ``lint`` span: the checked compile records its own ``verify``.
    with telemetry.span(
        "lint", kernel=kernel.name, mode=kernel.mode.value
    ) as span:
        diagnostics = check_kernel(kernel)
        program: ISAProgram | None = None
        if not errors(diagnostics):
            try:
                program, found = checked_compile(kernel, gpu, options)
            except CompileError as exc:
                diagnostics.append(
                    diag("V100", f"compilation failed: {exc}")
                )
            else:
                diagnostics.extend(found)
        if span:
            span.set(
                errors=len(errors(diagnostics)),
                warnings=len(warnings(diagnostics)),
            )
            count_verified(diagnostics)
    return LintReport(kernel, tuple(diagnostics), program)


def count_verified(diagnostics: list[Diagnostic]) -> None:
    """Add one verified kernel and its findings to the run's counters."""
    registry = telemetry.metrics()
    registry.counter("verify.kernels").inc()
    registry.counter("verify.errors").inc(len(errors(diagnostics)))
    registry.counter("verify.warnings").inc(len(warnings(diagnostics)))


def verify_compiled(
    kernel: ILKernel,
    program: ISAProgram,
    max_tex_per_clause: int = 8,
    max_alu_per_clause: int = 128,
    case=None,
) -> list[Diagnostic]:
    """Every post-lowering finding for ``program``, without raising.

    The ISA legality checks plus the differential IL-vs-ISA execution
    against ``kernel``, the kernel as written.  ``case`` optionally
    supplies a pre-built differential test vector (the checked compile
    shares one across its checks).  Nothing is memoized here: suite runs
    put a compile cache in front of every compile, so each distinct
    program verifies once.
    """
    from repro.verify.differential import check_lowering
    from repro.verify.isa_checks import check_program

    diagnostics = check_program(
        program,
        max_tex_per_clause=max_tex_per_clause,
        max_alu_per_clause=max_alu_per_clause,
    )
    diagnostics.extend(check_lowering(kernel, program, case=case))
    return diagnostics


__all__ = [
    "LintReport",
    "VerificationError",
    "lint_kernel",
    "verify_compiled",
]
