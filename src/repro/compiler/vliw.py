"""VLIW bundle packing.

Each thread processor issues one VLIW instruction (a *bundle*) per cycle:
four general stream cores (slots x, y, z, w) and one transcendental core
(slot t) that can also execute basic operations (§II-A).  Packing is greedy
in program order with one hard rule: an operation may not read a value
produced inside its own bundle, because all slots execute in the same
cycles.

The paper's generated kernels are fully data-dependent chains, so they pack
one operation per bundle regardless of data type — "the number of ALU
instructions is not dependent on data type" (§III).  Independent code (the
sample applications) genuinely packs wider.
"""

from __future__ import annotations

from repro.compiler.defuse import DefUse
from repro.il.instructions import ALUInstruction

_GENERAL_SLOTS = ("x", "y", "z", "w")

#: a packed bundle: (slot, instruction) pairs in program order.
ProtoBundle = list[tuple[str, ALUInstruction]]


def pack_bundles(
    instructions: list[ALUInstruction], index: DefUse, start: int
) -> list[ProtoBundle]:
    """Greedy in-order packing of an ALU segment into VLIW bundles.

    ``instructions`` is the contiguous body run that begins at body
    position ``start``, and ``index`` the body's def-use index.  Because
    the run is contiguous, an instruction reads a value made in the open
    bundle exactly when one of its sources was written at or after the
    bundle's first position.

    In-order greedy packing is what the CAL compiler effectively achieves
    on straight-line code: an instruction joins the current bundle unless
    it depends on it or the bundle is full.
    """
    bundles: list[ProtoBundle] = []
    ops: ProtoBundle = []
    first = start  # body position of the open bundle's first op
    general = 0  # general (x/y/z/w) slots taken in the open bundle
    t_used = False
    for pos, instr in enumerate(instructions, start):
        transcendental = instr.op.transcendental
        if (
            not bundles
            or max(index[pos]) >= first
            or (t_used if transcendental else general == 4 and t_used)
        ):
            ops = []
            bundles.append(ops)
            first, general, t_used = pos, 0, False
        if transcendental or general == 4:
            ops.append(("t", instr))
            t_used = True
        else:
            ops.append((_GENERAL_SLOTS[general], instr))
            general += 1
    return bundles
