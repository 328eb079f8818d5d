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
from itertools import groupby

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


#: the segment kind of each instruction class
_KIND = {
    ALUInstruction: ALUSegment,
    SampleInstruction: FetchSegment,
    GlobalLoadInstruction: FetchSegment,
    ExportInstruction: StoreSegment,
    GlobalStoreInstruction: StoreSegment,
}


def form_segments(kernel: ILKernel) -> list[Segment]:
    """Split the kernel body into alternating fetch/ALU segments plus one
    trailing store segment.

    Raises :class:`CompileError` if a fetch or ALU instruction appears
    after the first store — the hardware's export clause terminates the
    program (``EXP_DONE``), so the generators always place outputs last.
    The body is cut into runs of one segment kind at C speed; the loop
    below runs once per run.
    """
    body = kernel.body
    segments: list[Segment] = []
    stores = StoreSegment()
    pos = 0
    for kind, run in groupby(map(_KIND.get, map(type, body))):
        end = pos + len(list(run))
        if kind is StoreSegment:
            stores.stores.extend(body[pos:end])
        elif kind is None:  # pragma: no cover - defensive
            raise CompileError(f"unsupported instruction {body[pos]!r}")
        elif stores.stores:
            what = "ALU instruction" if kind is ALUSegment else "fetch"
            raise CompileError(
                f"kernel {kernel.name!r}: {what} after store is not "
                "supported (exports terminate the program)"
            )
        elif kind is ALUSegment:
            segments.append(ALUSegment(pos, list(body[pos:end])))
        else:
            segments.append(FetchSegment(list(body[pos:end])))
        pos = end
    if not stores.stores:
        raise CompileError(f"kernel {kernel.name!r} produces no output")
    segments.append(stores)
    return segments


def chunk(items: list, size: int) -> list[list]:
    """Split ``items`` into runs of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    return [items[i : i + size] for i in range(0, len(items), size)]
