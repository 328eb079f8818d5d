"""Collect-all static checks over IL kernels.

These subsume the first-error checks :mod:`repro.il.validate` has always
enforced (the paper's §III compiler interactions: kernels must have
outputs, every input must be fetched *and* used) and extend them with
dataflow diagnostics: uninitialized reads, misplaced ALU operands, dead
writes, code after the terminal store, double-written outputs, and
stream indices declared twice or used but never declared.
``validate_kernel`` runs :func:`error_checks` (every check that can
raise an error) and raises the first error; callers that want the full
picture, warnings included, use :func:`check_kernel` directly.
"""

from __future__ import annotations

from collections import Counter

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
    return error_checks(kernel) + _check_dead_writes(kernel)


def error_checks(kernel: ILKernel) -> list[Diagnostic]:
    """Every check that can report an error-severity finding.

    This is :func:`check_kernel` minus the dead-write liveness pass, whose
    V008 findings are warnings only; callers that keep just the errors
    (``validate_kernel``, differential pass validation) run this.  The
    findings may still include V010 warnings.

    One walk over the body collects what every check needs, keyed on
    temporary indices, and reads ALU instructions (nearly all of a
    generated body) through their fields.  Findings come out grouped by
    check, each group in body or declaration order: V001-V003/V012,
    V013, V004/V011, V005/V006, V007/V010, V009.
    """
    temp_file, output_file = RegisterFile.TEMP, RegisterFile.OUTPUT
    unwritten = "before it is written"
    inputs = {decl.index for decl in kernel.inputs}
    outputs = {decl.index for decl in kernel.outputs}
    undeclared: list[Diagnostic] = []  # V013
    registers: list[Diagnostic] = []  # V004, V011
    terminal: list[Diagnostic] = []  # V009
    defined: set[int] = set()  # indices of the temporaries written so far
    # What ALU code and stores read: temporaries by index, so no Register
    # is hashed, and any other register (a fetch may name one) by itself.
    consumed: set[int | Register] = set()
    define, consume = defined.add, consumed.add
    sampled: dict[int, Register] = {}
    loaded: dict[int, Register] = {}
    exported: Counter[int] = Counter()
    stored: Counter[int] = Counter()
    first_store: int | None = None

    def flag(code: str, pos: int, reg: Register, what: str) -> None:
        registers.append(
            diag(
                code,
                f"kernel {kernel.name!r}: instruction {pos} "
                f"({kernel.body[pos]}) {what}",
                _il_loc(pos),
                register=str(reg),
            )
        )

    for pos, instr in enumerate(kernel.body):
        kind = type(instr)
        if kind is ALUInstruction:
            for source in instr.sources:
                reg = source.register
                if reg.file is temp_file:
                    index = reg.index
                    if index not in defined:
                        flag("V004", pos, reg, f"reads {reg} {unwritten}")
                    consume(index)
                else:
                    if reg.file is output_file:
                        rule = "output registers are write-only"
                        flag("V011", pos, reg, f"reads {reg}; {rule}")
                    consume(reg)
            reg = instr.dest
            if reg.file is temp_file:
                define(reg.index)
            else:
                rule = "ALU results go to temporaries (rN)"
                flag("V011", pos, reg, f"writes {reg}; {rule}")
        else:
            store = kind is ExportInstruction or kind is GlobalStoreInstruction
            for reg in instr.used_registers():
                temp = reg.file is temp_file
                if temp and reg.index not in defined:
                    flag("V004", pos, reg, f"reads {reg} {unwritten}")
                if store:
                    consume(reg.index if temp else reg)
            for reg in instr.defined_registers():
                if reg.file is temp_file:
                    define(reg.index)
            if kind is SampleInstruction:
                index, side = instr.resource, inputs
                sampled[index] = instr.dest
            elif kind is GlobalLoadInstruction:
                index, side = instr.offset, inputs
                loaded[index] = instr.dest
            elif kind is ExportInstruction:
                index, side = instr.target, outputs
                exported[index] += 1
            else:  # GlobalStoreInstruction
                index, side = instr.offset, outputs
                stored[index] += 1
            if index not in side:
                stream = "input" if side is inputs else "output"
                undeclared.append(
                    diag(
                        "V013",
                        f"kernel {kernel.name!r}: instruction {pos} ({instr}) "
                        f"names {stream} {index}, which is never declared",
                        _il_loc(pos),
                        **{stream: index},
                    )
                )
            if store:
                if first_store is None:
                    first_store = pos
                continue
        if first_store is not None:  # fetch/ALU code after a store
            terminal.append(
                diag(
                    "V009",
                    f"kernel {kernel.name!r}: instruction {pos} ({instr}) "
                    f"follows the store at {first_store}; exports terminate "
                    "the program",
                    _il_loc(pos),
                )
            )
    return (
        _check_declarations(kernel)
        + undeclared
        + registers
        + _check_inputs_used(kernel, sampled, loaded, consumed)
        + _check_outputs_written(kernel, exported, stored)
        + terminal
    )


def _check_declarations(kernel: ILKernel) -> list[Diagnostic]:
    """V001-V003 (outputs the hardware cannot take); V012 (a stream
    index declared more than once)."""
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
    for kind, decls in (("input", kernel.inputs), ("output", kernel.outputs)):
        counts = Counter(decl.index for decl in decls)
        diags.extend(
            diag(
                "V012",
                f"kernel {kernel.name!r}: {kind} {index} is declared "
                f"{count} times; each stream index is declared once",
                **{kind: index, "declared": count},
            )
            for index, count in counts.items()
            if count > 1
        )
    return diags


def _check_inputs_used(
    kernel: ILKernel,
    sampled: dict[int, Register],
    loaded: dict[int, Register],
    consumed: set[int | Register],
) -> list[Diagnostic]:
    """V005 (an input never fetched); V006 (its value never read)."""
    diags: list[Diagnostic] = []
    for decl in kernel.inputs:
        texture = decl.space is MemorySpace.TEXTURE
        reg = (sampled if texture else loaded).get(decl.index)
        kind = "sampled" if texture else "loaded"
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
        elif (
            reg.index if reg.file is RegisterFile.TEMP else reg
        ) not in consumed:
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


def _check_outputs_written(
    kernel: ILKernel, exported: Counter[int], stored: Counter[int]
) -> list[Diagnostic]:
    """V007 (an output never written); V010 (written more than once)."""
    diags: list[Diagnostic] = []
    for decl in kernel.outputs:
        color = decl.space is MemorySpace.COLOR_BUFFER
        written = (exported if color else stored)[decl.index]
        kind = "color" if color else "global"
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


def _check_dead_writes(kernel: ILKernel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for pos in dead_instruction_indices(kernel):
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
