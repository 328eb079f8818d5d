"""Dataflow analyses over IL kernels and lowered ISA programs.

Two independent recomputations back the verifier's checks:

* **IL backward liveness** — which instructions can reach an output;
  everything else is a dead write the CAL compiler would delete (§III).
* **ISA GPR live intervals** — per *physical* register intervals over
  the linearized clause stream.  The maximum number of simultaneously
  live intervals, plus the reserved position register ``R0``, is what
  the paper reports as "GPRs used"; :func:`recomputed_gpr_count` derives
  it without consulting the register allocator, so the verifier can
  cross-check ``regalloc``'s ``gpr_count`` (the number behind the
  paper's wavefront-residency results, Figs. 16-17).

By design, neither reads the compiler's index (:mod:`repro.compiler.defuse`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.il.instructions import (
    ExportInstruction,
    GlobalStoreInstruction,
    RegisterFile,
)
from repro.il.module import ILKernel
from repro.isa.clauses import ALUClause, ExportClause, TEXClause, ValueLocation
from repro.isa.program import ISAProgram


# ---- IL level --------------------------------------------------------------

def dead_instruction_indices(kernel: ILKernel) -> list[int]:
    """Body indices whose results never reach a store or export.

    The backward-liveness recomputation is intentionally independent of
    :func:`repro.compiler.optimize.eliminate_dead_code` so the verifier
    can cross-check the optimizer rather than trust it.
    """
    body = kernel.body
    live: set[int] = set()  # indices of the live temporaries
    dead: list[int] = []
    temp_file = RegisterFile.TEMP
    for index in range(len(body) - 1, -1, -1):
        instr = body[index]
        defs = instr.defined_registers()
        if isinstance(instr, (ExportInstruction, GlobalStoreInstruction)):
            keep = True
        else:
            keep = False
            for d in defs:
                if d.file is temp_file and d.index in live:
                    keep = True
                    break
        if keep:
            for d in defs:
                if d.file is temp_file:
                    live.discard(d.index)
            for u in instr.used_registers():
                if u.file is temp_file:
                    live.add(u.index)
        else:
            dead.append(index)
    dead.reverse()
    return dead


# ---- ISA level -------------------------------------------------------------

@dataclass(slots=True)
class GPRInterval:
    """One live range of a physical GPR over the linearized program."""

    index: int  #: GPR number
    start: int  #: linear position of the write that opens the range
    end: int  #: linear position of the last read (== start if never read)
    reads: int = 0  #: how many reads the range received

    @property
    def dead(self) -> bool:
        return self.reads == 0


def gpr_live_intervals(program: ISAProgram) -> list[GPRInterval]:
    """Live intervals of every physical GPR, in linear program order.

    Positions advance exactly as the register allocator counts them: one
    per fetch, one per VLIW bundle, one per store.  Reads within a
    bundle attach to the *pre-bundle* interval (co-issue semantics), so
    a same-position read+write yields two intervals overlapping at that
    point — matching the allocator's closed-interval release rule.
    """
    gpr = ValueLocation.GPR
    live: dict[int, GPRInterval] = {}  # the open interval of each GPR
    closed: list[GPRInterval] = []
    pos = 0

    def write(index: int, at: int) -> None:
        previous = live.pop(index, None)
        if previous is not None:
            closed.append(previous)
        live[index] = GPRInterval(index, at, at)

    for clause in program.clauses:
        if isinstance(clause, TEXClause):
            for fetch in clause.fetches:
                if fetch.dest.location is gpr:
                    write(fetch.dest.index, pos)
                pos += 1
        elif isinstance(clause, ALUClause):
            # most bundles of a chain touch no GPR at all
            for offset, reads, writes in gpr_events(clause):
                at = pos + offset
                for index in reads:
                    interval = live.get(index)
                    if interval is not None:
                        interval.end = at
                        interval.reads += 1
                for index in writes:
                    write(index, at)
            pos += len(clause.bundles)
        elif isinstance(clause, ExportClause):
            for store in clause.stores:
                if store.source.location is gpr:
                    interval = live.get(store.source.index)
                    if interval is not None:
                        interval.end = pos
                        interval.reads += 1
                pos += 1
    closed.extend(live.values())
    return closed


def gpr_events(clause: ALUClause) -> tuple:
    """``(bundle offset, GPRs read, GPRs written)`` of each bundle of
    ``clause`` that touches a GPR, in order.  A fact of the clause alone,
    memoized on the (interned) clause."""
    events = clause.__dict__.get("_gpr_events")
    if events is None:
        gpr = ValueLocation.GPR
        events = []
        for offset, bundle in enumerate(clause.bundles):
            ops = bundle.ops
            reads = [s.index for op in ops for s in op.sources if s.location is gpr]
            writes = [
                op.dest.index
                for op in ops
                if op.dest is not None and op.dest.location is gpr
            ]
            if reads or writes:
                events.append((offset, tuple(reads), tuple(writes)))
        events = tuple(events)
        object.__setattr__(clause, "_gpr_events", events)
    return events


def max_live_gprs(
    program: ISAProgram, intervals: list[GPRInterval] | None = None
) -> int:
    """Maximum number of simultaneously live GPR values (excluding R0).

    Intervals are closed, so the overlap at a start ``s`` counts every
    interval with ``start <= s <= end``.  Every interval has
    ``end >= start``, so that count is the number of starts at or before
    ``s`` minus the number of ends strictly before it, found by bisecting
    the sorted starts and ends: O(n log n), not pairwise.  ``intervals``
    accepts :func:`gpr_live_intervals` output a caller already has.
    """
    if intervals is None:
        intervals = gpr_live_intervals(program)
    starts = sorted(i.start for i in intervals if i.index != 0)
    ends = sorted(i.end for i in intervals if i.index != 0)
    best = 0
    for start in starts:
        overlap = bisect_right(starts, start) - bisect_left(ends, start)
        if overlap > best:
            best = overlap
    return best


def recomputed_gpr_count(
    program: ISAProgram, intervals: list[GPRInterval] | None = None
) -> int:
    """Independent "GPRs used" count: max-live values + the reserved R0.

    A program using no GPRs at all still occupies one (R0, the
    pre-loaded position/thread id) — matching ``regalloc``'s floor.
    """
    return max_live_gprs(program, intervals) + 1
