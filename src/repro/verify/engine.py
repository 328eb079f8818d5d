"""Verifier entry points: linting and the pipeline hook.

Two front doors:

* :func:`lint_kernel` — the collect-all analysis behind ``repro lint``:
  IL checks, a compile attempt, ISA clause-legality checks and the
  differential lowering check, all folded into one :class:`LintReport`.
* :func:`verify_compiled` — the in-pipeline hook: given a kernel and the
  program it lowered to, run the ISA checks and the differential
  execution and *raise* :class:`VerificationError` on any error-severity
  finding.  ``compile_kernel`` calls this on every compile.

Both, and ``repro ska``, collect their post-lowering findings through
:func:`check_compiled`.  There is no switch: every compile verifies, and
only the report-don't-raise front ends (``lint_kernel`` and the ``ska``
command) compile with ``verify=False`` and run the checks themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.compiler.errors import CompileError
from repro.il.module import ILKernel
from repro.isa.program import ISAProgram
from repro.verify.diagnostics import (
    Diagnostic,
    Severity,
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
    Compilation is attempted even when IL checks found errors only if the
    errors are warnings; error-severity IL findings skip the lowering
    stages (the compiler's own validator would reject the kernel anyway,
    and V100 would merely duplicate the finding).
    """
    from repro.compiler import pipeline
    from repro.verify.il_checks import check_kernel

    with telemetry.span(
        "verify", kernel=kernel.name, mode=kernel.mode.value
    ) as span:
        diagnostics = list(check_kernel(kernel))
        program: ISAProgram | None = None
        if not errors(diagnostics):
            if options is None:
                options = (
                    pipeline.CompileOptions.for_gpu(gpu)
                    if gpu is not None
                    else pipeline.CompileOptions()
                )
            try:
                program = pipeline.compile_kernel(
                    kernel, gpu, options, verify=False
                )
            except CompileError as exc:
                diagnostics.append(
                    diag("V100", f"compilation failed: {exc}")
                )
            else:
                diagnostics.extend(
                    check_compiled(
                        kernel,
                        program,
                        options.max_tex_per_clause,
                        options.max_alu_per_clause,
                    )
                )
        if span:
            span.set(
                errors=len(errors(diagnostics)),
                warnings=len(warnings(diagnostics)),
            )
            _count(diagnostics)
    return LintReport(kernel, tuple(diagnostics), program)


def _count(diagnostics: list[Diagnostic]) -> None:
    """Add one verified kernel and its findings to the run's counters."""
    registry = telemetry.metrics()
    registry.counter("verify.kernels").inc()
    registry.counter("verify.errors").inc(len(errors(diagnostics)))
    registry.counter("verify.warnings").inc(len(warnings(diagnostics)))


def check_compiled(
    kernel: ILKernel,
    program: ISAProgram,
    max_tex_per_clause: int = 8,
    max_alu_per_clause: int = 128,
    case=None,
) -> list[Diagnostic]:
    """Every post-lowering finding for ``program``, without raising.

    The ISA legality checks plus the differential IL-vs-ISA execution.
    ``case`` optionally supplies a pre-built differential test vector
    (the pipeline shares one across its passes).
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


def verify_compiled(
    kernel: ILKernel,
    program: ISAProgram,
    max_tex_per_clause: int = 8,
    max_alu_per_clause: int = 128,
    case=None,
) -> list[Diagnostic]:
    """Post-lowering verification, run by every ``compile_kernel``.

    Returns :func:`check_compiled`'s findings; raises
    :class:`VerificationError` if any is an error (warnings — dead ISA
    writes, oversized clauses — pass through for the caller to report).

    Nothing is memoized here: suite runs put a compile cache in front of
    every compile, so each distinct program verifies once.  With
    telemetry on, it counts the kernel and its findings.
    """
    diagnostics = check_compiled(
        kernel, program, max_tex_per_clause, max_alu_per_clause, case
    )
    if telemetry.enabled():
        _count(diagnostics)
    broken = errors(diagnostics)
    if broken:
        raise VerificationError(
            f"kernel {kernel.name!r} failed post-compile verification:\n"
            + "\n".join(f"  {d}" for d in broken),
            tuple(diagnostics),
        )
    return diagnostics


__all__ = [
    "LintReport",
    "Severity",
    "VerificationError",
    "check_compiled",
    "lint_kernel",
    "verify_compiled",
]
