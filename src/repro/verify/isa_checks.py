"""Clause-legality and register checks over lowered ISA programs.

These encode the R600-family execution rules of the paper's §II-A: an
ALU clause is a run of VLIW bundles (four general slots plus one
transcendental), clause temporaries ``T0``/``T1`` "are only live inside
these clauses", ``PV``/``PS`` expose exactly the previous bundle's
results, and the terminal export clause ends the program.  The GPR
cross-check recomputes "GPRs used" from live intervals and compares it
with the register allocator's answer — the number that drives the
paper's wavefront-residency figures.
"""

from __future__ import annotations

from repro.isa.clauses import (
    ALUClause,
    Bundle,
    ExportClause,
    TEXClause,
    Value,
    ValueLocation,
)
from repro.isa.program import ISAProgram
from repro.verify.dataflow import (
    GPRInterval,
    gpr_live_intervals,
    recomputed_gpr_count,
)
from repro.verify.diagnostics import Diagnostic, SourceLocation, diag

_GENERAL_SLOTS = ("x", "y", "z", "w")


def _isa_loc(clause: int, bundle: int | None = None) -> SourceLocation:
    return SourceLocation("isa", clause=clause, bundle=bundle)


def check_program(
    program: ISAProgram,
    max_tex_per_clause: int = 8,
    max_alu_per_clause: int = 128,
) -> list[Diagnostic]:
    """Run every ISA check and return all findings (possibly empty)."""
    diags: list[Diagnostic] = []
    diags += _check_clause_order(program)
    diags += _check_clause_sizes(
        program, max_tex_per_clause, max_alu_per_clause
    )
    diags += _check_clause_content(program)
    diags += _check_value_flow(program)
    intervals = gpr_live_intervals(program)
    diags += _check_dead_writes(intervals)
    diags += _check_gpr_count(program, intervals)
    return diags


def _check_clause_order(program: ISAProgram) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    last = len(program.clauses) - 1
    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, ExportClause) and ci != last:
            diags.append(
                diag(
                    "V101",
                    f"clause {ci} is an export clause but {last - ci} "
                    "clause(s) follow it; EXP_DONE terminates the program",
                    _isa_loc(ci),
                )
            )
    if program.clauses and not isinstance(program.clauses[last], ExportClause):
        diags.append(
            diag(
                "V101",
                f"program ends with {type(program.clauses[last]).__name__}, "
                "not an export clause",
                _isa_loc(last),
            )
        )
    return diags


def _check_clause_sizes(
    program: ISAProgram, max_tex: int, max_alu: int
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, TEXClause) and clause.count > max_tex:
            diags.append(
                diag(
                    "V109",
                    f"TEX clause {ci} holds {clause.count} fetches; the "
                    f"hardware limit is {max_tex} per clause",
                    _isa_loc(ci),
                    count=clause.count,
                    limit=max_tex,
                )
            )
        elif isinstance(clause, ALUClause) and clause.count > max_alu:
            diags.append(
                diag(
                    "V109",
                    f"ALU clause {ci} holds {clause.count} bundles; the "
                    f"hardware limit is {max_alu} per clause",
                    _isa_loc(ci),
                    count=clause.count,
                    limit=max_alu,
                )
            )
    return diags


def _check_clause_content(program: ISAProgram) -> list[Diagnostic]:
    """Mixed-space clauses, non-GPR fetch destinations, VLIW slot rules."""
    diags: list[Diagnostic] = []
    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, TEXClause):
            spaces = {f.space for f in clause.fetches}
            if len(spaces) > 1:
                diags.append(
                    diag(
                        "V110",
                        f"TEX clause {ci} mixes texture and global fetches; "
                        "a clause issues on one path",
                        _isa_loc(ci),
                    )
                )
            for fetch in clause.fetches:
                if fetch.dest.location is not ValueLocation.GPR:
                    diags.append(
                        diag(
                            "V110",
                            f"TEX clause {ci}: fetch result lands in "
                            f"{fetch.dest}, but fetch destinations must be "
                            "GPRs (clause temps die at the clause switch)",
                            _isa_loc(ci),
                        )
                    )
        elif isinstance(clause, ALUClause):
            for bi, bundle in enumerate(clause.bundles):
                diags += _check_bundle(bundle, ci, bi)
        elif isinstance(clause, ExportClause):
            spaces = {s.space for s in clause.stores}
            if len(spaces) > 1:
                diags.append(
                    diag(
                        "V110",
                        f"export clause {ci} mixes color-buffer and global "
                        "stores",
                        _isa_loc(ci),
                    )
                )
    return diags


def _check_bundle(bundle: Bundle, ci: int, bi: int) -> list[Diagnostic]:
    """VLIW slot legality, incl. the one-transcendental-per-bundle rule."""
    diags: list[Diagnostic] = []
    loc = _isa_loc(ci, bi)
    slots = [op.slot for op in bundle.ops]
    if len(bundle.ops) > 5:
        diags.append(
            diag(
                "V104",
                f"bundle {bi} of clause {ci} co-issues {len(bundle.ops)} "
                "operations; a VLIW word has 5 slots",
                loc,
            )
        )
    for slot in set(slots):
        if slots.count(slot) > 1:
            diags.append(
                diag(
                    "V104",
                    f"bundle {bi} of clause {ci} uses slot {slot!r} "
                    f"{slots.count(slot)} times",
                    loc,
                )
            )
    for op in bundle.ops:
        if op.slot not in (*_GENERAL_SLOTS, "t"):
            diags.append(
                diag(
                    "V104",
                    f"bundle {bi} of clause {ci}: invalid slot {op.slot!r}",
                    loc,
                )
            )
        if op.op.transcendental and op.slot != "t":
            diags.append(
                diag(
                    "V104",
                    f"bundle {bi} of clause {ci}: {op.op.mnemonic} is "
                    f"transcendental and must use the t slot, not "
                    f"{op.slot!r}",
                    loc,
                )
            )
    return diags


def _check_value_flow(program: ISAProgram) -> list[Diagnostic]:
    """Uninitialized GPRs, clause-temp lifetimes, PV/PS adjacency."""
    diags: list[Diagnostic] = []
    defined_gprs: set[int] = {0}  # R0 pre-loads the position/thread id

    def check_temp_index(value: Value, loc: SourceLocation) -> None:
        if value.index not in (0, 1):
            diags.append(
                diag(
                    "V111",
                    f"clause temporary T{value.index} does not exist; the "
                    "hardware provides T0/T1 per wavefront slot",
                    loc,
                )
            )
        elif value.index >= max(program.clause_temp_count, 0) and (
            value.index < 2
        ):
            diags.append(
                diag(
                    "V111",
                    f"clause temporary T{value.index} is used but the "
                    f"program declares clause_temp_count="
                    f"{program.clause_temp_count}",
                    loc,
                )
            )

    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, TEXClause):
            for fetch in clause.fetches:
                if fetch.dest.location is ValueLocation.GPR:
                    defined_gprs.add(fetch.dest.index)
        elif isinstance(clause, ALUClause):
            defined_temps: set[int] = set()
            prev_vector: set[int] = set()
            prev_scalar = False
            for bi, bundle in enumerate(clause.bundles):
                loc = _isa_loc(ci, bi)
                bundle_gpr_writes = {
                    op.dest.index
                    for op in bundle.ops
                    if op.dest is not None
                    and op.dest.location is ValueLocation.GPR
                }
                for op in bundle.ops:
                    for src in op.sources:
                        if src.location is ValueLocation.GPR:
                            if src.index in bundle_gpr_writes:
                                diags.append(
                                    diag(
                                        "V105",
                                        f"bundle {bi} of clause {ci} reads "
                                        f"R{src.index} which a co-issued "
                                        "slot writes; it sees the "
                                        "pre-bundle value",
                                        loc,
                                    )
                                )
                            if src.index not in defined_gprs:
                                diags.append(
                                    diag(
                                        "V106",
                                        f"bundle {bi} of clause {ci} reads "
                                        f"R{src.index} before any write",
                                        loc,
                                        register=f"R{src.index}",
                                    )
                                )
                        elif src.location is ValueLocation.CLAUSE_TEMP:
                            check_temp_index(src, loc)
                            if src.index not in defined_temps:
                                diags.append(
                                    diag(
                                        "V102",
                                        f"bundle {bi} of clause {ci} reads "
                                        f"T{src.index} with no definition "
                                        "in this clause; clause temps do "
                                        "not survive clause boundaries "
                                        "(§II-A)",
                                        loc,
                                    )
                                )
                        elif src.location is ValueLocation.PREVIOUS_VECTOR:
                            if src.index not in prev_vector:
                                diags.append(
                                    diag(
                                        "V103",
                                        f"bundle {bi} of clause {ci} reads "
                                        f"PV.{'xyzwt'[src.index]} but the "
                                        "previous bundle produced no "
                                        "result in that slot",
                                        loc,
                                    )
                                )
                        elif src.location is ValueLocation.PREVIOUS_SCALAR:
                            if not prev_scalar:
                                diags.append(
                                    diag(
                                        "V103",
                                        f"bundle {bi} of clause {ci} reads "
                                        "PS but the previous bundle "
                                        "produced no t-slot result",
                                        loc,
                                    )
                                )
                next_vector: set[int] = set()
                next_scalar = False
                for op in bundle.ops:
                    if op.slot == "t":
                        next_scalar = True
                    elif op.slot in _GENERAL_SLOTS:
                        next_vector.add(_GENERAL_SLOTS.index(op.slot))
                    if op.dest is not None:
                        if op.dest.location is ValueLocation.GPR:
                            defined_gprs.add(op.dest.index)
                        elif op.dest.location is ValueLocation.CLAUSE_TEMP:
                            check_temp_index(op.dest, loc)
                            defined_temps.add(op.dest.index)
                prev_vector, prev_scalar = next_vector, next_scalar
        elif isinstance(clause, ExportClause):
            for store in clause.stores:
                src = store.source
                loc = _isa_loc(ci)
                if src.location is ValueLocation.GPR:
                    if src.index not in defined_gprs:
                        diags.append(
                            diag(
                                "V106",
                                f"export clause {ci} stores R{src.index} "
                                "before any write",
                                loc,
                                register=f"R{src.index}",
                            )
                        )
                elif src.location is ValueLocation.CLAUSE_TEMP:
                    diags.append(
                        diag(
                            "V102",
                            f"export clause {ci} stores T{src.index}, but "
                            "clause temps die at the clause switch (§II-A)",
                            loc,
                        )
                    )
                elif src.location in (
                    ValueLocation.PREVIOUS_VECTOR,
                    ValueLocation.PREVIOUS_SCALAR,
                ):
                    diags.append(
                        diag(
                            "V103",
                            f"export clause {ci} stores {src}, but PV/PS "
                            "do not cross the clause boundary",
                            loc,
                        )
                    )
    return diags


def _check_dead_writes(intervals: list[GPRInterval]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for interval in intervals:
        if interval.dead and interval.index != 0:
            diags.append(
                diag(
                    "V107",
                    f"R{interval.index} written at position "
                    f"{interval.start} is never read (dead write)",
                    register=f"R{interval.index}",
                    position=interval.start,
                )
            )
    return diags


def _check_gpr_count(
    program: ISAProgram, intervals: list[GPRInterval]
) -> list[Diagnostic]:
    recomputed = recomputed_gpr_count(program, intervals)
    if recomputed != program.gpr_count:
        return [
            diag(
                "V108",
                f"register allocator reports gpr_count="
                f"{program.gpr_count} but max-live recomputation gives "
                f"{recomputed}; wavefront residency (Figs. 16-17) would "
                "be mispredicted",
                reported=program.gpr_count,
                recomputed=recomputed,
            )
        ]
    return []
