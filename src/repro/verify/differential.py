"""Differential pass validation: prove compiler passes preserve meaning.

Static checks catch structurally illegal programs; this module catches
the subtler failure — a pass that produces a *legal* program computing
the wrong thing.  Each compiler pass (DCE today; any future rewrite) is
bracketed: re-run the IL-level checks on its output (a pass must not
break validity) and functionally execute the kernel before and after on
deterministic pseudo-random inputs, requiring identical results.  The
final lowering is validated the same way by comparing the IL executor
(:mod:`repro.sim.functional`) against the ISA interpreter
(:mod:`repro.isa.interp`) — both dispatch through one table of float32
NumPy operations (:data:`repro.sim.functional.ALU_OPS`) in the same
order, so "preserved semantics" means *bitwise* equality, including the
overflow-to-infinity behaviour of long add chains.

Inputs are seeded from the kernel name (crc32), so reruns and CI are
reproducible and failures replayable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.compiler.errors import CompileError
from repro.il.module import ILKernel
from repro.isa.program import ISAProgram
from repro.verify.diagnostics import Diagnostic, diag

#: small but non-trivial domain: enough threads to exercise the
#: position register and per-thread data without slowing the suite.
DEFAULT_DOMAIN: tuple[int, int] = (4, 4)


class PassValidationError(CompileError):
    """A compiler pass changed the meaning of a kernel."""


def seeded_inputs(
    kernel: ILKernel, domain: tuple[int, int] = DEFAULT_DOMAIN
) -> dict[int, np.ndarray]:
    """Deterministic pseudo-random input arrays for ``kernel``.

    Values are drawn from ``[0.25, 1.75)`` — away from zero so RCP/LOG
    stay finite and multiplicative chains do not collapse to 0.  All
    inputs come from one batched draw: NumPy's Generator streams are
    shape-agnostic, so ``uniform(size=(n, h, w, c))`` yields bitwise the
    same values as ``n`` sequential ``(h, w, c)`` draws while paying the
    RNG and float32-cast overhead once (the register-usage kernels have
    64 inputs, so the per-array loop was a measurable verify cost).
    """
    decls = kernel.inputs
    if not decls:
        return {}
    width, height = domain
    rng = np.random.default_rng(zlib.crc32(kernel.name.encode()))
    batch = rng.uniform(
        0.25,
        1.75,
        size=(len(decls), height, width, kernel.dtype.components),
    ).astype(np.float32)
    return dict(zip([decl.index for decl in decls], batch))


def seeded_constants(
    kernel: ILKernel,
) -> dict[int, float]:
    """Deterministic constant-buffer values for ``kernel``."""
    if not kernel.constants:
        return {}  # most kernels: no generator to seed
    rng = np.random.default_rng(zlib.crc32(kernel.name.encode()) ^ 0xC0FFEE)
    return {
        decl.index: float(rng.uniform(0.25, 1.75))
        for decl in kernel.constants
    }


@dataclass
class SeededCase:
    """One kernel's deterministic test vector, shared across passes.

    The pipeline runs up to two differential checks per compile (DCE
    before/after, then IL vs ISA), both against the kernel as written.
    The inputs depend only on the kernel *name* and domain, so they are
    generated once; that kernel's IL outputs, the reference both checks
    compare against, are executed once and kept here.
    """

    inputs: dict[int, np.ndarray]
    constants: dict[int, float]
    domain: tuple[int, int]
    #: the seeding kernel's IL-executor outputs, once a check ran it
    reference: dict[int, np.ndarray] | None = None

    def reference_outputs(self, kernel: ILKernel) -> dict[int, np.ndarray]:
        """The outputs of ``kernel``, the seeding kernel, run once."""
        if self.reference is None:
            from repro.sim.functional import execute_kernel

            self.reference = execute_kernel(
                kernel, self.inputs, self.domain, self.constants
            )
        return self.reference


def seeded_case(kernel: ILKernel) -> SeededCase:
    """Build the kernel's :class:`SeededCase` (inputs + constants)."""
    return SeededCase(
        inputs=seeded_inputs(kernel),
        constants=seeded_constants(kernel),
        domain=DEFAULT_DOMAIN,
    )


def _mismatched(
    a: dict[int, np.ndarray], b: dict[int, np.ndarray]
) -> list[int]:
    """The sorted keys of the outputs ``a`` and ``b`` disagree on."""
    return sorted(
        key
        for key in a.keys() | b.keys()
        if key not in a or key not in b or not _arrays_equal(a[key], b[key])
    )


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b, equal_nan=True)``, answered from the bytes
    when they match (as they do whenever a check passes)."""
    if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
        return True
    return np.array_equal(a, b, equal_nan=True)


def check_il_pass(
    before: ILKernel,
    after: ILKernel,
    pass_name: str,
    case: SeededCase | None = None,
) -> list[Diagnostic]:
    """Validate one IL→IL pass: output stays valid, semantics unchanged.

    ``case`` supplies a pre-built test vector (see :func:`seeded_case`);
    omitted, one is seeded from ``before`` — identical either way, since
    passes preserve the kernel name the seed derives from.
    """
    from repro.sim.functional import ExecutionError, execute_kernel
    from repro.verify.il_checks import error_checks
    from repro.verify.diagnostics import errors

    diags: list[Diagnostic] = []
    broken = errors(error_checks(after))
    if broken:
        diags.append(
            diag(
                "V202",
                f"pass {pass_name!r} broke kernel {before.name!r}: "
                + "; ".join(d.message for d in broken),
                pass_name=pass_name,
            )
        )
        return diags  # don't try to execute an invalid kernel

    if case is None:
        case = seeded_case(before)
    try:
        out_before = case.reference_outputs(before)
        out_after = execute_kernel(after, case.inputs, case.domain, case.constants)
    except ExecutionError as exc:
        diags.append(
            diag(
                "V201",
                f"pass {pass_name!r} left kernel {before.name!r} "
                f"unexecutable: {exc}",
                pass_name=pass_name,
            )
        )
        return diags
    if _mismatched(out_before, out_after):
        diags.append(
            diag(
                "V201",
                f"pass {pass_name!r} changed the output of kernel "
                f"{before.name!r} on seeded inputs (domain "
                f"{case.domain[0]}x{case.domain[1]})",
                pass_name=pass_name,
            )
        )
    return diags


def check_lowering(
    kernel: ILKernel,
    program: ISAProgram,
    case: SeededCase | None = None,
) -> list[Diagnostic]:
    """Validate the full IL→ISA lowering by differential execution."""
    from repro.isa.interp import ISAExecutionError, execute_program
    from repro.sim.functional import ExecutionError

    if case is None:
        case = seeded_case(kernel)
    try:
        il_out = case.reference_outputs(kernel)
        isa_out = execute_program(program, case.inputs, case.domain, case.constants)
    except (ExecutionError, ISAExecutionError) as exc:
        return [
            diag(
                "V203",
                f"kernel {kernel.name!r} failed differential execution: "
                f"{exc}",
            )
        ]
    mismatched = _mismatched(il_out, isa_out)
    if mismatched:
        return [
            diag(
                "V203",
                f"lowering changed the output of kernel {kernel.name!r}: "
                f"output(s) {mismatched} differ between the IL executor "
                "and the ISA interpreter on seeded inputs",
                outputs=mismatched,
            )
        ]
    return []
