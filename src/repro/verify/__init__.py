"""Static analysis for the IL→ISA compiler: diagnostics, dataflow,
clause-legality checks and differential pass validation.

Every compile runs these checks through one driver,
:func:`repro.compiler.pipeline.checked_compile`; ``compile_kernel``
raises its first error, and :func:`lint_kernel` (``repro lint``) and
``repro ska`` report all its findings.  :func:`verify_compiled` is its
post-lowering stage.  See docs/verify.md for the diagnostic code catalog.
"""

from repro.verify.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    Severity,
    SourceLocation,
    diag,
    errors,
    format_diagnostics,
    warnings,
)
from repro.verify.dataflow import (
    GPRInterval,
    dead_instruction_indices,
    gpr_live_intervals,
    max_live_gprs,
    recomputed_gpr_count,
)
from repro.verify.differential import (
    DEFAULT_DOMAIN,
    PassValidationError,
    check_il_pass,
    check_lowering,
    seeded_constants,
    seeded_inputs,
)
from repro.verify.engine import (
    LintReport,
    VerificationError,
    lint_kernel,
    verify_compiled,
)
from repro.verify.il_checks import check_kernel
from repro.verify.isa_checks import check_program

__all__ = [
    "CODE_CATALOG",
    "DEFAULT_DOMAIN",
    "Diagnostic",
    "GPRInterval",
    "LintReport",
    "PassValidationError",
    "Severity",
    "SourceLocation",
    "VerificationError",
    "check_il_pass",
    "check_kernel",
    "check_lowering",
    "check_program",
    "dead_instruction_indices",
    "diag",
    "errors",
    "format_diagnostics",
    "gpr_live_intervals",
    "lint_kernel",
    "max_live_gprs",
    "recomputed_gpr_count",
    "seeded_constants",
    "seeded_inputs",
    "verify_compiled",
    "warnings",
]
