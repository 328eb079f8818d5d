"""Collect-all static checks over IL kernels.

These subsume the first-error checks :mod:`repro.il.validate` has always
enforced (the paper's §III compiler interactions: kernels must have
outputs, every input must be fetched *and* used) and extend them with
dataflow diagnostics: uninitialized reads, misplaced ALU operands, dead
writes, code after the terminal store, and double-written outputs.
``validate_kernel`` runs :func:`error_checks` (every check that can
raise an error) and raises the first error; callers that want the full
picture, warnings included, use :func:`check_kernel` directly.
"""

from __future__ import annotations

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    Register,
    RegisterFile,
    SampleInstruction,
)
from repro.il.module import ILKernel
from repro.il.types import MemorySpace, ShaderMode
from repro.verify.dataflow import dead_instruction_indices
from repro.verify.diagnostics import Diagnostic, SourceLocation, diag


def _il_loc(index: int) -> SourceLocation:
    return SourceLocation("il", instruction=index)


def check_kernel(kernel: ILKernel) -> list[Diagnostic]:
    """Run every IL check and return all findings (possibly empty)."""
    # The passes walk the same straight-line body; collect each
    # instruction's register tuples once instead of once per pass.
    defined = [instr.defined_registers() for instr in kernel.body]
    used = [instr.used_registers() for instr in kernel.body]
    return error_checks(kernel, defined, used) + _check_dead_writes(
        kernel, defined, used
    )


def error_checks(
    kernel: ILKernel,
    defined: list[tuple[Register, ...]] | None = None,
    used: list[tuple[Register, ...]] | None = None,
) -> list[Diagnostic]:
    """Every check that can report an error-severity finding.

    This is :func:`check_kernel` minus the dead-write liveness pass, whose
    V008 findings are warnings only; callers that keep just the errors
    (``validate_kernel``, differential pass validation) run this.  The
    findings may still include V010 warnings.
    """
    if defined is None:
        defined = [instr.defined_registers() for instr in kernel.body]
    if used is None:
        used = [instr.used_registers() for instr in kernel.body]
    diags: list[Diagnostic] = []
    diags += _check_outputs(kernel)
    diags += _check_registers(kernel, defined, used)
    diags += _check_inputs_used(kernel, used)
    diags += _check_outputs_written(kernel)
    diags += _check_terminal_stores(kernel)
    return diags


def _check_outputs(kernel: ILKernel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not kernel.outputs:
        diags.append(
            diag(
                "V001",
                f"kernel {kernel.name!r} has no outputs; the CAL compiler "
                "would eliminate it entirely (paper §III)",
            )
        )
    color_outputs = [
        d for d in kernel.outputs if d.space is MemorySpace.COLOR_BUFFER
    ]
    if kernel.mode is ShaderMode.COMPUTE:
        for decl in color_outputs:
            diags.append(
                diag(
                    "V002",
                    f"kernel {kernel.name!r}: compute shader mode cannot "
                    f"write color buffers (output {decl.index}, paper "
                    "§III-C)",
                    output=decl.index,
                )
            )
    if len(color_outputs) > 8:
        diags.append(
            diag(
                "V003",
                f"kernel {kernel.name!r} declares {len(color_outputs)} "
                "color buffers; the hardware supports at most 8 render "
                "targets",
                declared=len(color_outputs),
            )
        )
    return diags


def _check_registers(
    kernel: ILKernel,
    defined_by: list[tuple[Register, ...]],
    used_by: list[tuple[Register, ...]],
) -> list[Diagnostic]:
    """V004 (read before write); V011 (an ALU op writes a non-``rN``
    or reads an ``oN``: docs/il_reference.md)."""
    diags: list[Diagnostic] = []
    temp_file, output_file = RegisterFile.TEMP, RegisterFile.OUTPUT
    defined: set[int] = set()  # indices of the temporaries written so far
    for pos, instr in enumerate(kernel.body):
        for reg in used_by[pos]:
            if reg.file is temp_file:
                if reg.index not in defined:
                    diags.append(
                        diag(
                            "V004",
                            f"kernel {kernel.name!r}: instruction {pos} "
                            f"({instr}) reads {reg} before it is written",
                            _il_loc(pos),
                            register=str(reg),
                        )
                    )
            elif reg.file is output_file and isinstance(instr, ALUInstruction):
                rule = "output registers are write-only"
                diags.append(_alu_operand(kernel, pos, "reads", reg, rule))
        for reg in defined_by[pos]:
            if reg.file is temp_file:
                defined.add(reg.index)
            elif isinstance(instr, ALUInstruction):
                rule = "ALU results go to temporaries (rN)"
                diags.append(_alu_operand(kernel, pos, "writes", reg, rule))
    return diags


def _alu_operand(
    kernel: ILKernel, pos: int, verb: str, reg: Register, rule: str
) -> Diagnostic:
    return diag(
        "V011",
        f"kernel {kernel.name!r}: instruction {pos} ({kernel.body[pos]}) "
        f"{verb} {reg}; {rule}",
        _il_loc(pos),
        register=str(reg),
    )


def _check_inputs_used(
    kernel: ILKernel, used_by: list[tuple[Register, ...]]
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    temp_file = RegisterFile.TEMP
    sampled: dict[int, Register] = {}
    global_loaded: dict[int, Register] = {}
    # What ALU code and stores read: temporaries by index, so no Register
    # is hashed, and any other register (a fetch may name one) by itself.
    consumed: set[int | Register] = set()
    for pos, instr in enumerate(kernel.body):
        if isinstance(
            instr, (ALUInstruction, ExportInstruction, GlobalStoreInstruction)
        ):
            for reg in used_by[pos]:
                consumed.add(reg.index if reg.file is temp_file else reg)
        elif isinstance(instr, SampleInstruction):
            sampled[instr.resource] = instr.dest
        elif isinstance(instr, GlobalLoadInstruction):
            global_loaded[instr.offset] = instr.dest

    for decl in kernel.inputs:
        if decl.space is MemorySpace.TEXTURE:
            reg = sampled.get(decl.index)
            kind = "sampled"
        else:
            reg = global_loaded.get(decl.index)
            kind = "loaded"
        if reg is None:
            diags.append(
                diag(
                    "V005",
                    f"kernel {kernel.name!r}: input {decl.index} is never "
                    f"{kind}; the CAL compiler would optimize it out "
                    "(paper §III)",
                    input=decl.index,
                )
            )
        elif (reg.index if reg.file is temp_file else reg) not in consumed:
            diags.append(
                diag(
                    "V006",
                    f"kernel {kernel.name!r}: input {decl.index} is {kind} "
                    f"into {reg} but the value is never used (paper §III)",
                    input=decl.index,
                    register=str(reg),
                )
            )
    return diags


def _check_outputs_written(kernel: ILKernel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    exported: dict[int, int] = {}
    stored: dict[int, int] = {}
    for instr in kernel.body:
        if isinstance(instr, ExportInstruction):
            exported[instr.target] = exported.get(instr.target, 0) + 1
        elif isinstance(instr, GlobalStoreInstruction):
            stored[instr.offset] = stored.get(instr.offset, 0) + 1
    for decl in kernel.outputs:
        counts = exported if decl.space is MemorySpace.COLOR_BUFFER else stored
        kind = "color" if decl.space is MemorySpace.COLOR_BUFFER else "global"
        written = counts.get(decl.index, 0)
        if written == 0:
            diags.append(
                diag(
                    "V007",
                    f"kernel {kernel.name!r}: {kind} output {decl.index} is "
                    "never written",
                    output=decl.index,
                )
            )
        elif written > 1:
            diags.append(
                diag(
                    "V010",
                    f"kernel {kernel.name!r}: {kind} output {decl.index} is "
                    f"written {written} times; only the last store survives",
                    output=decl.index,
                    writes=written,
                )
            )
    return diags


def _check_terminal_stores(kernel: ILKernel) -> list[Diagnostic]:
    """Fetch/ALU code after the first store never executes (EXP_DONE)."""
    diags: list[Diagnostic] = []
    first_store: int | None = None
    for pos, instr in enumerate(kernel.body):
        if isinstance(instr, (ExportInstruction, GlobalStoreInstruction)):
            if first_store is None:
                first_store = pos
        elif first_store is not None:
            diags.append(
                diag(
                    "V009",
                    f"kernel {kernel.name!r}: instruction {pos} ({instr}) "
                    f"follows the store at {first_store}; exports terminate "
                    "the program",
                    _il_loc(pos),
                )
            )
    return diags


def _check_dead_writes(
    kernel: ILKernel,
    defined_by: list[tuple[Register, ...]],
    used_by: list[tuple[Register, ...]],
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for pos in dead_instruction_indices(kernel, defined_by, used_by):
        instr = kernel.body[pos]
        diags.append(
            diag(
                "V008",
                f"kernel {kernel.name!r}: instruction {pos} ({instr}) "
                "computes a value that never reaches an output (DCE would "
                "remove it)",
                _il_loc(pos),
            )
        )
    return diags
