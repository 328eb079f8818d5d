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
    Clause,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
    ValueLocation,
    interned_alu_clause,
    interned_bundle,
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


#: the PV/PS operand code of a value the previous bundle wrote, by its
#: slot and whether the read negates it
_FORWARDED = {
    (slot, negate): interned_value(location, index, negate).code
    for slot, location, index in (
        *((s, ValueLocation.PREVIOUS_VECTOR, i) for i, s in enumerate("xyzw")),
        ("t", ValueLocation.PREVIOUS_SCALAR, 0),
    )
    for negate in (False, True)
}
#: the operands of T0/T1, and of every GPR handed out so far
_TEMPS = tuple(interned_value(ValueLocation.CLAUSE_TEMP, i, False) for i in (0, 1))
_GPRS: list[Value] = []
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
    twice is two values with two live ranges.  Bundles are built from
    their encodings through ``interned_bundle`` and ALU clauses from
    their bundles through ``interned_alu_clause``, so equal bundles,
    and ALU clauses of the same bundles, are one shared object across
    every program of the process.
    """
    clause_of, step_of, slot_of, last_use = _place(kernel.body, proto, index)
    #: each value's (non-negated) operand; None if it only rides PV/PS
    stored, in_gprs, temp_count = _decide_storage(
        clause_of, step_of, slot_of, last_use
    )
    gpr_count = _allocate_gprs(step_of, last_use, in_gprs, stored)
    codes = [None if value is None else value.code for value in stored]

    clauses: list[Clause] = []
    pos = 0
    for clause in proto:
        if isinstance(clause, ProtoALUClause):
            bundles = []
            # Bundles hold consecutive body positions (``_place`` checked
            # the order), so a value from the previous bundle of this
            # clause is one written in [previous, first).
            previous = first = pos
            for bundle in clause.bundles:
                previous, first = first, pos
                ops = []  # each op's code; see Bundle.code
                for slot, instr in bundle:
                    sources = []
                    for operand, def_pos in zip(instr.sources, index[pos]):
                        if previous <= def_pos < first:  # rides PV/PS
                            sources.append(_FORWARDED[slot_of[def_pos], operand.negate])
                        elif def_pos < 0 or operand.negate or codes[def_pos] is None:
                            sources.append(_source(operand, def_pos, stored).code)
                        else:
                            sources.append(codes[def_pos])
                    ops.append(
                        (slot, instr.op.mnemonic, codes[pos], tuple(sources))
                    )
                    pos += 1
                bundles.append(interned_bundle(tuple(ops)))
            clauses.append(interned_alu_clause(tuple(bundles)))
        elif isinstance(clause, ProtoTexClause):
            fetches = []
            for fetch in clause.fetches:
                if isinstance(fetch, SampleInstruction):
                    address, space = fetch.resource, MemorySpace.TEXTURE
                else:
                    address, space = fetch.offset, MemorySpace.GLOBAL
                fetches.append(FetchInstr(stored[pos], address, space))
                pos += 1
            clauses.append(TEXClause(tuple(fetches)))
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
    if def_pos >= 0:
        value = stored[def_pos]
        if value is None:
            raise CompileError(
                f"value {operand.register} has no storage but is used "
                "beyond PV range"
            )
    else:
        reg = operand.register
        location = _FIXED.get(reg.file)
        if location is None:
            raise CompileError(f"use of undefined register {reg}")
        index = 0 if location is ValueLocation.POSITION else reg.index
        value = interned_value(location, index, False)
    if operand.negate:
        return interned_value(value.location, value.index, True)
    return value


def _place(
    body: tuple[ILInstruction, ...], proto: list[ProtoClause], index: DefUse
) -> tuple[list[int], list[int], list[str], list[int]]:
    """Each body position's clause, issue step (one per issue group: an
    ALU bundle, or a lone fetch or store), VLIW slot ("" outside ALU
    clauses) and the last position that reads its value (-1: none).

    Walks the proto clauses, which keep program order, counting body
    positions and checking each against ``body``.  A fetch coordinate is
    not a use (ISA fetches carry none); a fetch counts as its own last
    use, so it always writes a register.
    """
    n = len(body)
    clause_of = [0] * n
    step_of = [0] * n
    slot_of = [""] * n
    last_use = [-1] * n
    pos = step = 0
    for c_index, clause in enumerate(proto):
        if isinstance(clause, ProtoALUClause):
            for ops in clause.bundles:
                for slot, instr in ops:
                    if pos == n or body[pos] is not instr:
                        raise _out_of_order(pos)
                    clause_of[pos], step_of[pos], slot_of[pos] = c_index, step, slot
                    for def_pos in index[pos]:
                        if def_pos >= 0:
                            last_use[def_pos] = pos
                    pos += 1
                step += 1
            continue
        is_fetch = isinstance(clause, ProtoTexClause)
        for instr in clause.fetches if is_fetch else clause.stores:
            if pos == n or body[pos] is not instr:
                raise _out_of_order(pos)
            clause_of[pos], step_of[pos] = c_index, step
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
    return clause_of, step_of, slot_of, last_use


def _out_of_order(pos: int) -> CompileError:
    return CompileError(f"proto clauses do not follow the kernel body at {pos}")


def _decide_storage(
    clause_of: list[int], step_of: list[int], slot_of: list[str], last_use: list[int]
) -> tuple[list[Value | None], list[int], int]:
    """Decide each value's storage class and assign T0/T1.

    A value read only by the next bundle of its ALU clause rides PV/PS
    (``None``).  One used only inside its clause takes a temporary, by
    interval scheduling in body (hence bundle) order: the lowest of T0
    and T1 whose last value was read before this value's bundle, or a
    GPR when both are taken.  Fetch results and values that cross a
    clause take a GPR.  Returns each value's operand (a temporary's, or
    ``None`` until :func:`_allocate_gprs` fills in a GPR's), the
    positions of the values that take a GPR and the number of
    temporaries used.
    """
    stored: list[Value | None] = [None] * len(last_use)
    in_gprs: list[int] = []
    max_used = 0
    clause = -1
    busy = [-1, -1]  # the step of each temporary's last read, this clause
    for def_pos, last in enumerate(last_use):
        if last < 0:
            continue  # no value, or a dead one (DCE removes those)
        if not slot_of[def_pos] or clause_of[last] != clause_of[def_pos]:
            in_gprs.append(def_pos)
            continue
        # Bundles of one clause are consecutive steps.
        start, end = step_of[def_pos], step_of[last]
        if end == start + 1:
            continue  # every use is in the next bundle: PV/PS
        if clause_of[def_pos] != clause:
            clause = clause_of[def_pos]
            busy = [-1, -1]
        if busy[0] < start:
            temp_index = 0
        elif busy[1] < start:
            temp_index = 1
        else:
            in_gprs.append(def_pos)
            continue
        stored[def_pos] = _TEMPS[temp_index]
        busy[temp_index] = end
        if temp_index >= max_used:
            max_used = temp_index + 1
    return stored, in_gprs, max_used


def _allocate_gprs(
    step_of: list[int],
    last_use: list[int],
    in_gprs: list[int],
    stored: list[Value | None],
) -> int:
    """Linear-scan GPR allocation with reuse; R0 reserved for the position.

    Gives each value at a position in ``in_gprs`` its GPR in ``stored``
    and returns the GPR count.  Intervals are taken in (start step, end
    step, position) order.  Each is one int with those three fields, and
    each active GPR one int of (end step, GPR), so sorting and the heap
    compare plain ints; every field is below ``2 ** bits``.
    """
    bits = (len(last_use) + 2).bit_length()
    mask = (1 << bits) - 1
    intervals = sorted(
        [
            (step_of[def_pos] << bits | step_of[last_use[def_pos]]) << bits | def_pos
            for def_pos in in_gprs
        ]
    )

    free: list[int] = []
    next_fresh = 1  # R0 reserved
    active: list[int] = []  # end_step << bits | gpr_index
    highest = 0
    for interval in intervals:
        start = interval >> bits >> bits
        while active and active[0] >> bits < start:
            heapq.heappush(free, heapq.heappop(active) & mask)
        if free:
            register = heapq.heappop(free)
        else:
            register = next_fresh
            next_fresh += 1
        stored[interval & mask] = _gpr(register)
        heapq.heappush(active, (interval >> bits & mask) << bits | register)
        if register > highest:
            highest = register

    gpr_count = highest + 1 if intervals else 1
    if gpr_count > 256:
        raise ResourceLimitError(
            f"kernel requires {gpr_count} GPRs; the register file provides "
            "at most 256 per thread"
        )
    return gpr_count


def _gpr(register: int) -> Value:
    """The operand of GPR ``register``, from a list grown on demand."""
    while len(_GPRS) <= register:
        _GPRS.append(interned_value(ValueLocation.GPR, len(_GPRS), False))
    return _GPRS[register]
