"""IL-level optimization passes.

Currently one pass: dead-code elimination.  The paper notes the CAL
compiler aggressively removes computation that does not reach an output;
our generators are written so nothing is removable, and the tests use this
pass to prove it.
"""

from __future__ import annotations

from repro.compiler.defuse import DefUse
from repro.il.instructions import ExportInstruction, GlobalStoreInstruction
from repro.il.module import ILKernel


def eliminate_dead_code(kernel: ILKernel, index: DefUse) -> tuple[ILKernel, int]:
    """Remove instructions whose results never reach an output.

    ``index`` is the body's def-use index.  Returns the (possibly
    smaller) kernel and the number of instructions removed.  Stores and
    exports are always live; liveness propagates backwards to the writers
    of each kept instruction's sources.  Fetches of declared inputs are
    kept only if their value is live — mirroring the CAL compiler
    behaviour the paper works around ("every input that is declared and
    sampled has to be used").
    """
    body = kernel.body
    live = bytearray(len(body))
    # Backwards over (position, class, def-use row) in step.
    for pos, kind, row in zip(
        range(len(body) - 1, -1, -1), map(type, reversed(body)), reversed(index)
    ):
        if kind is ExportInstruction or kind is GlobalStoreInstruction:
            live[pos] = 1
        elif not live[pos]:
            continue
        for def_pos in row:
            if def_pos >= 0:
                live[def_pos] = 1

    removed = live.count(0)
    if removed == 0:
        return kernel, 0
    new_body = tuple(instr for instr, flag in zip(body, live) if flag)
    return kernel.with_body(new_body), removed
