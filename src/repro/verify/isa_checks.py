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
    ValueLocation,
)
from repro.isa.program import ISAProgram
from repro.verify.dataflow import (
    GPRInterval,
    gpr_live_intervals,
    recomputed_gpr_count,
)
from repro.verify.diagnostics import Diagnostic, SourceLocation, diag

_SLOTS = frozenset("xyzwt")
#: general slot -> its ``PV`` index
_VECTOR_SLOTS = {"x": 0, "y": 1, "z": 2, "w": 3}
_PREVIOUS = (ValueLocation.PREVIOUS_VECTOR, ValueLocation.PREVIOUS_SCALAR)


def _isa_loc(clause: int, bundle: int | None = None) -> SourceLocation:
    """A finding's location; the checks build it only when they emit one."""
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
        if isinstance(clause, TEXClause):
            kind, unit, limit = "TEX", "fetches", max_tex
        elif isinstance(clause, ALUClause):
            kind, unit, limit = "ALU", "bundles", max_alu
        else:
            continue
        if clause.count > limit:
            diags.append(
                diag(
                    "V109",
                    f"{kind} clause {ci} holds {clause.count} {unit}; the "
                    f"hardware limit is {limit} per clause",
                    _isa_loc(ci),
                    count=clause.count,
                    limit=limit,
                )
            )
    return diags


def _check_clause_content(program: ISAProgram) -> list[Diagnostic]:
    """Mixed-space clauses, non-GPR fetch destinations, VLIW slot rules."""
    diags: list[Diagnostic] = []
    gpr = ValueLocation.GPR
    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, ALUClause):
            *_, slots_ok = _clause_screen(clause)
            if not slots_ok:
                for bi, bundle in enumerate(clause.bundles):
                    diags += _bundle_violations(bundle, ci, bi)
        elif isinstance(clause, TEXClause):
            if _mixed(clause.fetches):
                diags.append(
                    diag(
                        "V110",
                        f"TEX clause {ci} mixes texture and global fetches; "
                        "a clause issues on one path",
                        _isa_loc(ci),
                    )
                )
            for fetch in clause.fetches:
                if fetch.dest.location is not gpr:
                    diags.append(
                        diag(
                            "V110",
                            f"TEX clause {ci}: fetch result lands in "
                            f"{fetch.dest}, but fetch destinations must be "
                            "GPRs (clause temps die at the clause switch)",
                            _isa_loc(ci),
                        )
                    )
        elif isinstance(clause, ExportClause) and _mixed(clause.stores):
            diags.append(
                diag(
                    "V110",
                    f"export clause {ci} mixes color-buffer and global stores",
                    _isa_loc(ci),
                )
            )
    return diags


def _mixed(instrs: tuple) -> bool:
    """True when ``instrs`` use more than one memory space."""
    return any(i.space is not instrs[0].space for i in instrs[1:])


def _bundle_violations(bundle: Bundle, ci: int, bi: int) -> list[Diagnostic]:
    """Every V104 finding of a bundle the slot screen rejected."""
    diags: list[Diagnostic] = []
    loc = _isa_loc(ci, bi)
    ops = bundle.ops
    slots = [op.slot for op in ops]
    if len(ops) > 5:
        diags.append(
            diag(
                "V104",
                f"bundle {bi} of clause {ci} co-issues {len(ops)} "
                "operations; a VLIW word has 5 slots",
                loc,
            )
        )
    for slot in dict.fromkeys(slots):  # first-seen order
        if slots.count(slot) > 1:
            diags.append(
                diag(
                    "V104",
                    f"bundle {bi} of clause {ci} uses slot {slot!r} "
                    f"{slots.count(slot)} times",
                    loc,
                )
            )
    for op in ops:
        if op.slot not in _SLOTS:
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
    gpr = ValueLocation.GPR
    declared = program.clause_temp_count
    usable_temps = (0, 1)[: max(declared, 0)]  # T0/T1 up to the count
    defined_gprs: set[int] = {0}  # R0 pre-loads the position/thread id
    for ci, clause in enumerate(program.clauses):
        if isinstance(clause, ALUClause):
            needed, written, temps, sound, _ = _clause_screen(clause)
            if sound and temps.issubset(usable_temps) and needed <= defined_gprs:
                defined_gprs.update(written)  # no findings
            else:
                _alu_value_flow(declared, clause, ci, defined_gprs, diags)
        elif isinstance(clause, TEXClause):
            for fetch in clause.fetches:
                if fetch.dest.location is gpr:
                    defined_gprs.add(fetch.dest.index)
        elif isinstance(clause, ExportClause):
            for store in clause.stores:
                src = store.source
                if src.location is gpr:
                    if src.index not in defined_gprs:
                        diags.append(
                            diag(
                                "V106",
                                f"export clause {ci} stores R{src.index} "
                                "before any write",
                                _isa_loc(ci),
                                register=f"R{src.index}",
                            )
                        )
                elif src.location is ValueLocation.CLAUSE_TEMP:
                    diags.append(
                        diag(
                            "V102",
                            f"export clause {ci} stores T{src.index}, but "
                            "clause temps die at the clause switch (§II-A)",
                            _isa_loc(ci),
                        )
                    )
                elif src.location in _PREVIOUS:
                    diags.append(
                        diag(
                            "V103",
                            f"export clause {ci} stores {src}, but PV/PS "
                            "do not cross the clause boundary",
                            _isa_loc(ci),
                        )
                    )
    return diags


def _clause_screen(clause: ALUClause) -> tuple:
    """``(GPRs read before the clause writes them, GPRs it writes, clause
    temporaries it names, sound, slots_ok)``: ``sound`` if it has no
    value-flow finding once those GPRs are defined and T0/T1 exist (its
    temporaries and PV/PS start empty), ``slots_ok`` if no V104 finding.
    Facts of the clause alone, found by the walks that report the
    findings and memoized on the (interned) clause."""
    screen = clause.__dict__.get("_screen")
    if screen is None:
        gpr, temp = ValueLocation.GPR, ValueLocation.CLAUSE_TEMP
        needed, written, temps = set(), set(), set()
        for bundle in clause.bundles:
            for value in [s for op in bundle.ops for s in op.sources]:
                if value.location is gpr and value.index not in written:
                    needed.add(value.index)
                elif value.location is temp:
                    temps.add(value.index)
            for value in [op.dest for op in bundle.ops if op.dest is not None]:
                if value.location is gpr:
                    written.add(value.index)
                elif value.location is temp:
                    temps.add(value.index)
        findings: list[Diagnostic] = []
        _alu_value_flow(2, clause, 0, set(needed), findings)
        slots = [_bundle_violations(b, 0, i) for i, b in enumerate(clause.bundles)]
        screen = (
            frozenset(needed), frozenset(written), frozenset(temps),
            not findings, not any(slots),
        )
        object.__setattr__(clause, "_screen", screen)
    return screen


def _alu_value_flow(
    declared: int,
    clause: ALUClause,
    ci: int,
    defined_gprs: set[int],
    diags: list[Diagnostic],
) -> None:
    """:func:`_check_value_flow` over ALU clause ``ci`` of a program that
    declares ``declared`` clause temporaries: appends its findings to
    ``diags`` and its GPR writes to ``defined_gprs``."""
    gpr = ValueLocation.GPR
    clause_temp = ValueLocation.CLAUSE_TEMP
    previous_vector = ValueLocation.PREVIOUS_VECTOR
    previous_scalar = ValueLocation.PREVIOUS_SCALAR
    usable_temps = (0, 1)[: max(declared, 0)]  # T0/T1 up to the count
    defined_temps: set[int] = set()
    prev_vector: list[int] = []
    prev_scalar = False
    for bi, bundle in enumerate(clause.bundles):
        # A bundle's results commit after all of its reads (co-issue), so
        # stage them before checking the reads.
        gpr_writes: list[int] = []
        temp_writes: list[int] = []
        next_vector: list[int] = []
        next_scalar = False
        for op in bundle.ops:
            if op.slot == "t":
                next_scalar = True
            elif op.slot in _VECTOR_SLOTS:
                next_vector.append(_VECTOR_SLOTS[op.slot])
            dest = op.dest
            if dest is not None:
                if dest.location is gpr:
                    gpr_writes.append(dest.index)
                elif dest.location is clause_temp:
                    temp_writes.append(dest.index)
        for op in bundle.ops:
            for src in op.sources:
                location, index = src.location, src.index
                if location is gpr:
                    if index in gpr_writes:
                        diags.append(
                            diag(
                                "V105",
                                f"bundle {bi} of clause {ci} reads R{index} "
                                "which a co-issued slot writes; it sees the "
                                "pre-bundle value",
                                _isa_loc(ci, bi),
                            )
                        )
                    if index not in defined_gprs:
                        diags.append(
                            diag(
                                "V106",
                                f"bundle {bi} of clause {ci} reads R{index} "
                                "before any write",
                                _isa_loc(ci, bi),
                                register=f"R{index}",
                            )
                        )
                elif location is clause_temp:
                    if index not in usable_temps:
                        diags.append(_temp_index_diag(index, declared, ci, bi))
                    if index not in defined_temps:
                        diags.append(
                            diag(
                                "V102",
                                f"bundle {bi} of clause {ci} reads T{index} "
                                "with no definition in this clause; clause "
                                "temps do not survive clause boundaries "
                                "(§II-A)",
                                _isa_loc(ci, bi),
                            )
                        )
                elif location is previous_vector:
                    if index not in prev_vector:
                        diags.append(
                            diag(
                                "V103",
                                f"bundle {bi} of clause {ci} reads "
                                f"PV.{'xyzwt'[index]} but the previous bundle "
                                "produced no result in that slot",
                                _isa_loc(ci, bi),
                            )
                        )
                elif location is previous_scalar and not prev_scalar:
                    diags.append(
                        diag(
                            "V103",
                            f"bundle {bi} of clause {ci} reads PS but the "
                            "previous bundle produced no t-slot result",
                            _isa_loc(ci, bi),
                        )
                    )
        defined_gprs.update(gpr_writes)
        for index in temp_writes:
            if index not in usable_temps:
                diags.append(_temp_index_diag(index, declared, ci, bi))
            defined_temps.add(index)
        prev_vector, prev_scalar = next_vector, next_scalar


def _temp_index_diag(index: int, declared: int, ci: int, bi: int) -> Diagnostic:
    """V111 for a clause temporary outside the program's usable ones."""
    if index not in (0, 1):
        problem = "does not exist; the hardware provides T0/T1 per wavefront slot"
    else:
        problem = f"is used but the program declares clause_temp_count={declared}"
    return diag("V111", f"clause temporary T{index} {problem}", _isa_loc(ci, bi))


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
