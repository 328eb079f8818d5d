"""Clause formation: segmenting the IL body into TEX/ALU/EXP groups.

Clause boundaries follow program order — the compiler does not hoist
fetches across ALU operations.  This is the property the paper's register
usage generator (Figure 6) relies on: placing a ``Sample`` after ALU
operations produces a separate TEX clause in the ISA, shortening the
sampled values' live ranges.  The standard generators emit all sampling
first, which yields the all-sampling-up-front ISA layout the paper
describes for the real CAL compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.errors import CompileError
from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    SampleInstruction,
)
from repro.il.module import ILKernel


@dataclass(slots=True)
class FetchSegment:
    """A maximal run of fetch instructions (one or more TEX clauses)."""

    fetches: list[SampleInstruction | GlobalLoadInstruction] = field(
        default_factory=list
    )


@dataclass(slots=True)
class ALUSegment:
    """A maximal run of ALU instructions (one or more ALU clauses)."""

    #: body position of the first instruction.
    start: int
    instructions: list[ALUInstruction] = field(default_factory=list)


@dataclass(slots=True)
class StoreSegment:
    """The trailing exports/global stores (one export clause)."""

    stores: list[ExportInstruction | GlobalStoreInstruction] = field(
        default_factory=list
    )


Segment = FetchSegment | ALUSegment | StoreSegment


def form_segments(kernel: ILKernel) -> list[Segment]:
    """Split the kernel body into alternating fetch/ALU segments plus one
    trailing store segment.

    Raises :class:`CompileError` if a fetch or ALU instruction appears
    after the first store — the hardware's export clause terminates the
    program (``EXP_DONE``), so the generators always place outputs last.
    """
    segments: list[Segment] = []
    stores = StoreSegment()
    store_list = stores.stores
    # The open fetch/ALU run's backing list, appended to directly; reset
    # whenever the segment kind flips.  ALU instructions dominate every
    # generated kernel (hundreds per kernel vs. at most ~18 fetches), so
    # they are dispatched first.
    open_kind: type | None = None
    open_list: list = []

    for pos, instr in enumerate(kernel.body):
        if isinstance(instr, ALUInstruction):
            if store_list:
                raise CompileError(
                    f"kernel {kernel.name!r}: ALU instruction after store is "
                    "not supported (exports terminate the program)"
                )
            if open_kind is not ALUSegment:
                seg = ALUSegment(pos)
                segments.append(seg)
                open_kind = ALUSegment
                open_list = seg.instructions
            open_list.append(instr)
        elif isinstance(instr, (SampleInstruction, GlobalLoadInstruction)):
            if store_list:
                raise CompileError(
                    f"kernel {kernel.name!r}: fetch after store is not "
                    "supported (exports terminate the program)"
                )
            if open_kind is not FetchSegment:
                seg = FetchSegment()
                segments.append(seg)
                open_kind = FetchSegment
                open_list = seg.fetches
            open_list.append(instr)
        elif isinstance(instr, (ExportInstruction, GlobalStoreInstruction)):
            store_list.append(instr)
        else:  # pragma: no cover - defensive
            raise CompileError(f"unsupported instruction {instr!r}")

    if not store_list:
        raise CompileError(f"kernel {kernel.name!r} produces no output")
    segments.append(stores)
    return segments


def chunk(items: list, size: int) -> list[list]:
    """Split ``items`` into runs of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    return [items[i : i + size] for i in range(0, len(items), size)]
