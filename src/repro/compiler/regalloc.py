"""Register allocation: virtual temporaries -> GPR / clause-temp / PV / PS.

The allocation strategy mirrors §II-A/§III of the paper:

* a value consumed only by the *immediately following* VLIW bundle in the
  same clause rides the previous-vector register ``PV`` (or ``PS`` for a
  t-slot result) and needs no register at all;
* a value whose uses stay inside one ALU clause takes one of the two
  clause temporaries (``T0``/``T1``), which "are only live inside these
  clauses";
* everything else — fetch results, values crossing clause boundaries, and
  export sources — occupies a general-purpose register, allocated by
  linear scan with reuse, so the GPR count equals the maximum number of
  simultaneously live cross-clause values (≈ the input count for the
  paper's generators).

``R0`` is reserved: the hardware pre-loads the interpolated position
(pixel mode) or the thread id (compute mode) into it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.compiler.defuse import DefUse
from repro.compiler.errors import CompileError, ResourceLimitError
from repro.compiler.vliw import ProtoBundle
from repro.il.instructions import (
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILInstruction,
    Operand,
    RegisterFile,
    SampleInstruction,
)
from repro.il.module import ILKernel
from repro.isa.clauses import (
    ALUClause,
    ALUOp,
    Bundle,
    Clause,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
    ValueLocation,
    interned_value,
)
from repro.il.types import MemorySpace
from repro.isa.program import ISAProgram


@dataclass(slots=True)
class ProtoTexClause:
    fetches: list[SampleInstruction | GlobalLoadInstruction]


@dataclass(slots=True)
class ProtoALUClause:
    bundles: list[ProtoBundle]


@dataclass(slots=True)
class ProtoExportClause:
    stores: list[ExportInstruction | GlobalStoreInstruction]


ProtoClause = ProtoTexClause | ProtoALUClause | ProtoExportClause


#: PV/PS operand of a value written by the previous bundle, per slot.
_FORWARDED = {
    slot: interned_value(ValueLocation.PREVIOUS_VECTOR, index, False)
    for index, slot in enumerate("xyzw")
}
_FORWARDED["t"] = interned_value(ValueLocation.PREVIOUS_SCALAR, 0, False)
#: storage of the registers the allocator does not place.
_FIXED = {
    RegisterFile.POSITION: ValueLocation.POSITION,
    RegisterFile.CONST: ValueLocation.CONSTANT,
    RegisterFile.LITERAL: ValueLocation.LITERAL,
}


def allocate(kernel: ILKernel, proto: list[ProtoClause], index: DefUse) -> ISAProgram:
    """Assign storage locations and build the final ISA program.

    ``proto`` holds every instruction of ``kernel.body`` in program
    order, and ``index`` is the body's def-use index.  Each value is
    keyed by the body position that wrote it, so a temporary written
    twice is two values with two live ranges.
    """
    clause_of, bundle_of, step_of, slot_of, last_use = _place(kernel.body, proto, index)
    location, number, temp_count = _decide_storage(
        clause_of, bundle_of, slot_of, last_use
    )
    gpr_count = _allocate_gprs(step_of, last_use, location, number)
    #: each value's (non-negated) operand; None if it only rides PV/PS
    stored = [
        interned_value(loc, reg, False) if loc is not None else None
        for loc, reg in zip(location, number)
    ]

    clauses: list[Clause] = []
    pos = 0
    for c_index, clause in enumerate(proto):
        if isinstance(clause, ProtoTexClause):
            fetches = []
            for fetch in clause.fetches:
                if isinstance(fetch, SampleInstruction):
                    address, space = fetch.resource, MemorySpace.TEXTURE
                else:
                    address, space = fetch.offset, MemorySpace.GLOBAL
                fetches.append(FetchInstr(stored[pos], address, space))
                pos += 1
            clauses.append(TEXClause(tuple(fetches)))
        elif isinstance(clause, ProtoALUClause):
            bundles = []
            for b_index, bundle in enumerate(clause.bundles):
                ops = []
                for slot, instr in bundle:
                    values = []
                    for operand, def_pos in zip(instr.sources, index[pos]):
                        # Fetches sit in TEX clauses, so a value from the
                        # previous bundle of this clause is an ALU result.
                        if (
                            def_pos >= 0
                            and bundle_of[def_pos] == b_index - 1
                            and clause_of[def_pos] == c_index
                        ):
                            value = _FORWARDED[slot_of[def_pos]]
                            if operand.negate:
                                value = interned_value(
                                    value.location, value.index, True
                                )
                        else:
                            value = _source(operand, def_pos, stored)
                        values.append(value)
                    ops.append(ALUOp(slot, instr.op, stored[pos], tuple(values)))
                    pos += 1
                bundles.append(Bundle(tuple(ops)))
            clauses.append(ALUClause(tuple(bundles)))
        else:
            stores = []
            for store in clause.stores:
                # The stored value is the store's last operand.
                source = _source(store.source, index[pos][-1], stored)
                if isinstance(store, ExportInstruction):
                    target, space = store.target, MemorySpace.COLOR_BUFFER
                else:
                    target, space = store.offset, MemorySpace.GLOBAL
                stores.append(StoreInstr(target, space, source))
                pos += 1
            clauses.append(ExportClause(tuple(stores)))

    return ISAProgram(kernel, tuple(clauses), gpr_count, temp_count)


def _source(operand: Operand, def_pos: int, stored: list[Value | None]) -> Value:
    """A source operand that does not ride PV/PS."""
    reg = operand.register
    if def_pos >= 0:
        value = stored[def_pos]
        if value is None:
            raise CompileError(
                f"value {reg} has no storage but is used beyond PV range"
            )
    elif reg.file in _FIXED:
        location = _FIXED[reg.file]
        index = 0 if location is ValueLocation.POSITION else reg.index
        value = interned_value(location, index, False)
    else:
        raise CompileError(f"use of undefined register {reg}")
    if operand.negate:
        return interned_value(value.location, value.index, True)
    return value


def _place(
    body: tuple[ILInstruction, ...], proto: list[ProtoClause], index: DefUse
) -> tuple[list[int], list[int], list[int], list[str], list[int]]:
    """Each body position's clause, issue group within it (an ALU bundle,
    or a lone fetch or store), issue step (one per group), VLIW slot
    ("" outside ALU clauses) and the last position that reads its value
    (-1: none).

    Walks the proto clauses, which keep program order, counting body
    positions and checking each against ``body``.  A fetch coordinate is
    not a use (ISA fetches carry none); a fetch counts as its own last
    use, so it always writes a register.
    """
    n = len(body)
    clause_of = [0] * n
    bundle_of = [0] * n
    step_of = [0] * n
    slot_of = [""] * n
    last_use = [-1] * n
    pos = step = 0
    for c_index, clause in enumerate(proto):
        is_fetch = isinstance(clause, ProtoTexClause)
        if isinstance(clause, ProtoALUClause):
            groups = clause.bundles
        else:
            items = clause.fetches if is_fetch else clause.stores
            groups = [[("", instr)] for instr in items]
        for b_index, ops in enumerate(groups):
            for slot, instr in ops:
                if pos == n or body[pos] is not instr:
                    raise _out_of_order(pos)
                clause_of[pos], bundle_of[pos] = c_index, b_index
                step_of[pos], slot_of[pos] = step, slot
                if is_fetch:
                    last_use[pos] = pos
                else:
                    for def_pos in index[pos]:
                        if def_pos >= 0:
                            last_use[def_pos] = pos
                pos += 1
            step += 1
    if pos != n:
        raise _out_of_order(pos)
    return clause_of, bundle_of, step_of, slot_of, last_use


def _out_of_order(pos: int) -> CompileError:
    return CompileError(f"proto clauses do not follow the kernel body at {pos}")


def _decide_storage(
    clause_of: list[int], bundle_of: list[int], slot_of: list[str], last_use: list[int]
) -> tuple[list[ValueLocation | None], list[int], int]:
    """Decide each value's storage class and assign T0/T1.

    A value read only by the next bundle of its ALU clause rides PV/PS
    (``None``).  One used only inside its clause takes a temporary, by
    interval scheduling in body (hence bundle) order, and spills to a GPR
    when both are taken.  Fetch results and values that cross a clause
    take a GPR.  Returns the locations, each temporary's index and the
    number of temporaries used.
    """
    location: list[ValueLocation | None] = [None] * len(last_use)
    number = [0] * len(last_use)
    max_used = 0
    clause = -1
    free: list[int] = []
    active: list[tuple[int, int]] = []  # (last_use_bundle, temp_index)
    for def_pos, last in enumerate(last_use):
        if last < 0:
            continue  # no value, or a dead one (DCE removes those)
        if not slot_of[def_pos] or clause_of[last] != clause_of[def_pos]:
            location[def_pos] = ValueLocation.GPR
            continue
        start, end = bundle_of[def_pos], bundle_of[last]
        if end == start + 1:
            continue  # every use is in the next bundle: PV/PS
        if clause_of[def_pos] != clause:
            clause = clause_of[def_pos]
            free = [0, 1]
            active = []
        while active and active[0][0] < start:
            _, released = heapq.heappop(active)
            heapq.heappush(free, released)
        if free:
            temp_index = heapq.heappop(free)
            location[def_pos] = ValueLocation.CLAUSE_TEMP
            number[def_pos] = temp_index
            heapq.heappush(active, (end, temp_index))
            max_used = max(max_used, temp_index + 1)
        else:
            location[def_pos] = ValueLocation.GPR
    return location, number, max_used


def _allocate_gprs(
    step_of: list[int],
    last_use: list[int],
    location: list[ValueLocation | None],
    number: list[int],
) -> int:
    """Linear-scan GPR allocation with reuse; R0 reserved for the position."""
    intervals = sorted(
        (step_of[def_pos], step_of[last_use[def_pos]], def_pos)
        for def_pos, loc in enumerate(location)
        if loc is ValueLocation.GPR
    )

    free: list[int] = []
    next_fresh = 1  # R0 reserved
    active: list[tuple[int, int]] = []  # (end_step, gpr_index)
    highest = 0
    for start, end, def_pos in intervals:
        while active and active[0][0] < start:
            _, released = heapq.heappop(active)
            heapq.heappush(free, released)
        if free:
            gpr = heapq.heappop(free)
        else:
            gpr = next_fresh
            next_fresh += 1
        number[def_pos] = gpr
        heapq.heappush(active, (end, gpr))
        highest = max(highest, gpr)

    gpr_count = highest + 1 if intervals else 1
    if gpr_count > 256:
        raise ResourceLimitError(
            f"kernel requires {gpr_count} GPRs; the register file provides "
            "at most 256 per thread"
        )
    return gpr_count
