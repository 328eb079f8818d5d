"""IL-level optimization passes.

Currently one pass: dead-code elimination.  The paper notes the CAL
compiler aggressively removes computation that does not reach an output;
our generators are written so nothing is removable, and the tests use this
pass to prove it.
"""

from __future__ import annotations

from repro.il.instructions import (
    ExportInstruction,
    GlobalStoreInstruction,
    Register,
    RegisterFile,
)
from repro.il.module import ILKernel


def eliminate_dead_code(kernel: ILKernel) -> tuple[ILKernel, int]:
    """Remove instructions whose results never reach an output.

    Returns the (possibly smaller) kernel and the number of instructions
    removed.  Stores and exports are always live; liveness propagates
    backwards through register operands.  Fetches of declared inputs are
    kept only if their destination is live — mirroring the CAL compiler
    behaviour the paper works around ("every input that is declared and
    sampled has to be used").
    """
    live_regs: set[Register] = set()
    keep: list[bool] = [False] * len(kernel.body)

    for index in range(len(kernel.body) - 1, -1, -1):
        instr = kernel.body[index]
        if isinstance(instr, (ExportInstruction, GlobalStoreInstruction)):
            keep[index] = True
        else:
            defs = instr.defined_registers()
            keep[index] = any(d in live_regs for d in defs)
        if keep[index]:
            for d in instr.defined_registers():
                live_regs.discard(d)
            for u in instr.used_registers():
                if u.file is RegisterFile.TEMP:
                    live_regs.add(u)

    removed = keep.count(False)
    if removed == 0:
        return kernel, 0
    new_body = tuple(
        instr for instr, flag in zip(kernel.body, keep) if flag
    )
    return kernel.with_body(new_body), removed
