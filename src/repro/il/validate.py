"""Semantic validation of IL kernels.

These checks encode the compiler interactions the paper documents in §III:
a kernel must have an output ("otherwise the compiler optimizes the kernel
for no output") and every declared input must be sampled and *used*
("otherwise the compiler optimizes the input out of the code").  Rather than
silently optimizing, validation rejects such kernels so the generators can
never silently measure an empty program.

The checks themselves live in :mod:`repro.verify.il_checks`, which
collects *every* finding as :class:`repro.verify.Diagnostic` records;
:func:`validate_kernel` keeps the historical raise-on-first-error
contract on top of the error-severity ones, once per kernel object.
Use :func:`repro.verify.check_kernel` when you want the full picture
instead of the first failure.  An input read only by dead code passes
here; every compile rejects it (V014, ``repro.compiler.pipeline``).
"""

from __future__ import annotations

from repro.il.module import ILKernel


class ILValidationError(ValueError):
    """An IL kernel broke a rule; ``diagnostics`` holds every error found."""

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


def validate_kernel(kernel: ILKernel) -> None:
    """Validate ``kernel``, raising :class:`ILValidationError` on failure.

    Runs only the error-severity checks and raises on the first error;
    warnings (dead writes, double-written outputs) are for
    :func:`repro.verify.check_kernel` and ``repro lint``, the optimizer
    handles them.

    Kernels are immutable, so :func:`repro.verify.il_checks.error_checks`
    records a clean result on the instance (as
    :func:`repro.il.text.cached_il_text` does for the IL text) and later
    calls on the same object return at once.  ``with_body`` and
    ``dataclasses.replace`` build new instances, which are checked again.
    """
    if kernel.__dict__.get("_valid"):
        return
    from repro.verify.diagnostics import errors
    from repro.verify.il_checks import error_checks

    failures = errors(error_checks(kernel))
    if failures:
        raise ILValidationError(failures[0].message, tuple(failures))
