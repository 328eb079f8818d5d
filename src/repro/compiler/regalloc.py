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

from repro.compiler.errors import CompileError, ResourceLimitError
from repro.compiler.vliw import ProtoBundle
from repro.il.instructions import (
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    Register,
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


@dataclass(slots=True)
class _DefInfo:
    pos: int
    clause: int
    bundle: int  #: bundle index within the clause (-1 for fetches)
    is_fetch: bool
    slot: str | None  #: VLIW slot of an ALU def (None for fetches)


@dataclass(slots=True)
class _UseInfo:
    pos: int
    clause: int
    bundle: int  #: bundle index within the clause (-1 for stores)


@dataclass
class AllocationResult:
    clauses: tuple[Clause, ...]
    gpr_count: int
    clause_temp_count: int


def allocate(kernel: ILKernel, proto: list[ProtoClause]) -> AllocationResult:
    """Assign storage locations and build the final ISA clauses."""
    defs: dict[Register, _DefInfo] = {}
    uses: dict[Register, list[_UseInfo]] = {}
    pos = 0
    temp_file = RegisterFile.TEMP
    record_use = uses.setdefault

    for c_index, clause in enumerate(proto):
        if isinstance(clause, ProtoTexClause):
            for fetch in clause.fetches:
                defs[fetch.dest] = _DefInfo(pos, c_index, -1, True, None)
                pos += 1
        elif isinstance(clause, ProtoALUClause):
            for b_index, bundle in enumerate(clause.bundles):
                # One _UseInfo record serves every operand of the bundle:
                # the fields are per-bundle and the record is never
                # mutated, so sharing it is observationally identical.
                use = _UseInfo(pos, c_index, b_index)
                for slot, instr in bundle.ops:
                    for operand in instr.sources:
                        reg = operand.register
                        if reg.file is temp_file:
                            record_use(reg, []).append(use)
                    defs[instr.dest] = _DefInfo(pos, c_index, b_index, False, slot)
                pos += 1
        else:
            for store in clause.stores:
                use = _UseInfo(pos, c_index, -1)
                for reg in store.used_registers():
                    if reg.file is temp_file:
                        record_use(reg, []).append(use)
                pos += 1

    storage = _decide_storage(defs, uses)
    temp_count = _allocate_clause_temps(proto, defs, uses, storage)
    gpr_map, gpr_count = _allocate_gprs(defs, uses, storage)

    def locate(
        reg: Register, use: _UseInfo | None = None, negate: bool = False
    ) -> Value:
        """Resolve a register reference at a given use site."""
        if reg.file is RegisterFile.POSITION:
            return interned_value(ValueLocation.POSITION, 0, negate)
        if reg.file is RegisterFile.CONST:
            return interned_value(ValueLocation.CONSTANT, reg.index, negate)
        if reg.file is RegisterFile.LITERAL:
            return interned_value(ValueLocation.LITERAL, reg.index, negate)
        info = defs.get(reg)
        if info is None:
            raise CompileError(f"use of undefined register {reg}")
        if (
            use is not None
            and not info.is_fetch
            and use.clause == info.clause
            and use.bundle == info.bundle + 1
        ):
            if info.slot == "t":
                return interned_value(ValueLocation.PREVIOUS_SCALAR, 0, negate)
            slot_index = "xyzw".index(info.slot)
            return interned_value(ValueLocation.PREVIOUS_VECTOR, slot_index, negate)
        kind = storage.get(reg)
        if kind is None:
            raise CompileError(
                f"value {reg} has no storage but is used beyond PV range"
            )
        loc, index = kind
        return interned_value(loc, index, negate)

    clauses: list[Clause] = []
    for c_index, clause in enumerate(proto):
        if isinstance(clause, ProtoTexClause):
            fetches = []
            for fetch in clause.fetches:
                loc, index = storage[fetch.dest]
                if isinstance(fetch, SampleInstruction):
                    fetches.append(
                        FetchInstr(interned_value(loc, index, False), fetch.resource, MemorySpace.TEXTURE)
                    )
                else:
                    fetches.append(
                        FetchInstr(interned_value(loc, index, False), fetch.offset, MemorySpace.GLOBAL)
                    )
            clauses.append(TEXClause(tuple(fetches)))
        elif isinstance(clause, ProtoALUClause):
            bundles = []
            for b_index, bundle in enumerate(clause.bundles):
                ops = []
                site = _UseInfo(0, c_index, b_index)
                for slot, instr in bundle.ops:
                    dest_kind = storage.get(instr.dest)
                    dest = interned_value(*dest_kind, False) if dest_kind is not None else None
                    sources = tuple(
                        locate(operand.register, site, operand.negate)
                        for operand in instr.sources
                    )
                    ops.append(ALUOp(slot, instr.op, dest, sources))
                bundles.append(Bundle(tuple(ops)))
            clauses.append(ALUClause(tuple(bundles)))
        else:
            stores = []
            for store in clause.stores:
                if isinstance(store, ExportInstruction):
                    source = locate(
                        store.source.register, negate=store.source.negate
                    )
                    stores.append(
                        StoreInstr(store.target, MemorySpace.COLOR_BUFFER, source)
                    )
                else:
                    source = locate(
                        store.source.register, negate=store.source.negate
                    )
                    stores.append(
                        StoreInstr(store.offset, MemorySpace.GLOBAL, source)
                    )
            clauses.append(ExportClause(tuple(stores)))

    return AllocationResult(tuple(clauses), gpr_count, temp_count)


def _decide_storage(
    defs: dict[Register, _DefInfo],
    uses: dict[Register, list[_UseInfo]],
) -> dict[Register, tuple[ValueLocation, int] | None]:
    """Determine which values need storage and of which class.

    Returns a dict mapping each stored register to a placeholder
    ``(location, -1)``; indices are filled in by the allocators.  Values
    that ride PV/PS exclusively map to nothing.
    """
    storage: dict[Register, tuple[ValueLocation, int] | None] = {}
    for reg, info in defs.items():
        use_list = uses.get(reg)
        if not use_list:
            continue  # dead value (DCE should have removed it)
        is_fetch = info.is_fetch
        def_clause = info.clause
        pv_bundle = info.bundle + 1
        needs = is_fetch
        intra_clause = True
        for use in use_list:
            use_clause = use.clause
            if is_fetch or use_clause != def_clause or use.bundle != pv_bundle:
                needs = True
            if use_clause != def_clause or use.bundle == -1:
                intra_clause = False
        if not needs:
            continue
        if not is_fetch and intra_clause:
            storage[reg] = (ValueLocation.CLAUSE_TEMP, -1)
        else:
            storage[reg] = (ValueLocation.GPR, -1)
    return storage


def _allocate_clause_temps(
    proto: list[ProtoClause],
    defs: dict[Register, _DefInfo],
    uses: dict[Register, list[_UseInfo]],
    storage: dict[Register, tuple[ValueLocation, int] | None],
) -> int:
    """Assign T0/T1 by interval scheduling within each ALU clause.

    Candidates that do not fit in the two temporaries spill to GPRs (their
    storage entry is rewritten).  Returns the number of temporaries used.
    """
    max_used = 0
    candidates_by_clause: dict[int, list[Register]] = {}
    for reg, kind in storage.items():
        if kind is not None and kind[0] is ValueLocation.CLAUSE_TEMP:
            candidates_by_clause.setdefault(defs[reg].clause, []).append(reg)

    for clause_index, regs in candidates_by_clause.items():
        regs.sort(key=lambda r: defs[r].bundle)
        free = [0, 1]
        heapq.heapify(free)
        active: list[tuple[int, int]] = []  # (last_use_bundle, temp_index)
        for reg in regs:
            start = defs[reg].bundle
            end = max(u.bundle for u in uses[reg])
            while active and active[0][0] < start:
                _, released = heapq.heappop(active)
                heapq.heappush(free, released)
            if free:
                temp_index = heapq.heappop(free)
                storage[reg] = (ValueLocation.CLAUSE_TEMP, temp_index)
                heapq.heappush(active, (end, temp_index))
                max_used = max(max_used, temp_index + 1)
            else:
                storage[reg] = (ValueLocation.GPR, -1)
    return max_used


def _allocate_gprs(
    defs: dict[Register, _DefInfo],
    uses: dict[Register, list[_UseInfo]],
    storage: dict[Register, tuple[ValueLocation, int] | None],
) -> tuple[dict[Register, int], int]:
    """Linear-scan GPR allocation with reuse; R0 reserved for the position."""
    intervals = []
    for reg, kind in storage.items():
        if kind is None or kind[0] is not ValueLocation.GPR:
            continue
        start = defs[reg].pos
        end = max(u.pos for u in uses[reg])
        intervals.append((start, end, reg))
    intervals.sort(key=lambda item: (item[0], item[1]))

    free: list[int] = []
    next_fresh = 1  # R0 reserved
    active: list[tuple[int, int]] = []  # (end_pos, gpr_index)
    assignment: dict[Register, int] = {}
    highest = 0
    for start, end, reg in intervals:
        while active and active[0][0] < start:
            _, released = heapq.heappop(active)
            heapq.heappush(free, released)
        if free:
            index = heapq.heappop(free)
        else:
            index = next_fresh
            next_fresh += 1
        assignment[reg] = index
        storage[reg] = (ValueLocation.GPR, index)
        heapq.heappush(active, (end, index))
        highest = max(highest, index)

    gpr_count = highest + 1 if assignment else 1
    if gpr_count > 256:
        raise ResourceLimitError(
            f"kernel requires {gpr_count} GPRs; the register file provides "
            "at most 256 per thread"
        )
    return assignment, gpr_count
