"""Kernel merging — the paper's §V optimization direction.

"We show that there are real world examples that can benefit from this
analysis and open the possibility for optimization at the kernel code
level, the kernel level and the application level, for instance, code
optimizations, kernel merging and application merging to increase overall
performance."

Merging an ALU-bound kernel with a fetch-bound kernel lets each run in
the shadow of the other's bottleneck: the merged kernel's time approaches
``max`` of the two instead of their sum.  :func:`merge_kernels` performs
the IL-level merge (renumbering streams and virtual registers);
:func:`predict_merge` quantifies the benefit on a simulated chip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILInstruction,
    Operand,
    Register,
    RegisterFile,
    SampleInstruction,
)
from repro.il.module import ConstantDecl, ILKernel, InputDecl, OutputDecl
from repro.il.types import MemorySpace
from repro.il.validate import validate_kernel
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.counters import Bound
from repro.sim.engine import LaunchResult


class MergeError(ValueError):
    """Raised when two kernels cannot be merged."""


def _shift_register(reg: Register, temp_offset: int) -> Register:
    if reg.file is RegisterFile.TEMP:
        return Register(RegisterFile.TEMP, reg.index + temp_offset)
    return reg


def _shift_operand(op: Operand, temp_offset: int) -> Operand:
    return Operand(_shift_register(op.register, temp_offset), op.negate)


def _shift_instruction(
    instr: ILInstruction,
    temp_offset: int,
    input_offset: int,
    output_offset: int,
    const_offset: int,
) -> ILInstruction:
    if isinstance(instr, SampleInstruction):
        return SampleInstruction(
            _shift_register(instr.dest, temp_offset),
            instr.resource + input_offset,
            _shift_operand(instr.coord, temp_offset),
        )
    if isinstance(instr, GlobalLoadInstruction):
        return GlobalLoadInstruction(
            _shift_register(instr.dest, temp_offset),
            _shift_operand(instr.address, temp_offset),
            instr.offset + input_offset,
        )
    if isinstance(instr, ALUInstruction):
        sources = []
        for source in instr.sources:
            reg = source.register
            if reg.file is RegisterFile.CONST:
                reg = Register(RegisterFile.CONST, reg.index + const_offset)
            else:
                reg = _shift_register(reg, temp_offset)
            sources.append(Operand(reg, source.negate))
        return ALUInstruction(
            instr.op, _shift_register(instr.dest, temp_offset), tuple(sources)
        )
    if isinstance(instr, ExportInstruction):
        return ExportInstruction(
            instr.target + output_offset,
            _shift_operand(instr.source, temp_offset),
        )
    if isinstance(instr, GlobalStoreInstruction):
        return GlobalStoreInstruction(
            _shift_operand(instr.address, temp_offset),
            _shift_operand(instr.source, temp_offset),
            instr.offset + output_offset,
        )
    raise MergeError(f"unsupported instruction {instr!r}")


def merge_kernels(a: ILKernel, b: ILKernel, name: str | None = None) -> ILKernel:
    """Fuse two kernels into one that computes both outputs per thread.

    Stream indices and virtual registers of ``b`` are renumbered after
    ``a``'s; both kernels' stores move to the end (exports terminate the
    program).  The kernels must share mode and data type, and the combined
    color-buffer count must fit the hardware's 8 render targets.
    """
    if a.mode is not b.mode:
        raise MergeError(
            f"cannot merge {a.mode.value} kernel with {b.mode.value} kernel"
        )
    if a.dtype is not b.dtype:
        raise MergeError(
            f"cannot merge {a.dtype.value} kernel with {b.dtype.value} kernel"
        )
    color_outputs = sum(
        1
        for decl in (*a.outputs, *b.outputs)
        if decl.space is MemorySpace.COLOR_BUFFER
    )
    if color_outputs > 8:
        raise MergeError(
            f"merged kernel would need {color_outputs} color buffers (max 8)"
        )

    temp_offset = 1 + max(
        (
            reg.index
            for instr in a.body
            for reg in (*instr.defined_registers(), *instr.used_registers())
            if reg.file is RegisterFile.TEMP
        ),
        default=-1,
    )

    inputs = list(a.inputs) + [
        InputDecl(decl.index + len(a.inputs), decl.space, decl.dtype)
        for decl in b.inputs
    ]
    outputs = list(a.outputs) + [
        OutputDecl(decl.index + len(a.outputs), decl.space, decl.dtype)
        for decl in b.outputs
    ]
    constants = list(a.constants) + [
        ConstantDecl(decl.index + len(a.constants), decl.dtype)
        for decl in b.constants
    ]

    def is_store(instr: ILInstruction) -> bool:
        return isinstance(instr, (ExportInstruction, GlobalStoreInstruction))

    body: list[ILInstruction] = [i for i in a.body if not is_store(i)]
    body.extend(
        _shift_instruction(
            instr, temp_offset, len(a.inputs), len(a.outputs), len(a.constants)
        )
        for instr in b.body
        if not is_store(instr)
    )
    body.extend(i for i in a.body if is_store(i))
    body.extend(
        _shift_instruction(
            instr, temp_offset, len(a.inputs), len(a.outputs), len(a.constants)
        )
        for instr in b.body
        if is_store(instr)
    )

    merged = ILKernel(
        name=name or f"{a.name}+{b.name}",
        mode=a.mode,
        dtype=a.dtype,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        constants=tuple(constants),
        body=tuple(body),
        metadata={"generator": "merge", "parents": [a.name, b.name]},
    )
    validate_kernel(merged)
    return merged


@dataclass(frozen=True)
class MergeReport:
    """Separate-vs-merged comparison on one chip."""

    seconds_a: float
    seconds_b: float
    seconds_merged: float
    bound_a: Bound
    bound_b: Bound
    bound_merged: Bound
    merged_result: LaunchResult

    @property
    def seconds_separate(self) -> float:
        return self.seconds_a + self.seconds_b

    @property
    def speedup(self) -> float:
        """Separate time over merged time (>1 means merging wins)."""
        return self.seconds_separate / self.seconds_merged

    def summary(self) -> str:
        return (
            f"separate {self.seconds_separate:.2f}s "
            f"({self.bound_a.value}+{self.bound_b.value}) vs merged "
            f"{self.seconds_merged:.2f}s ({self.bound_merged.value}): "
            f"{self.speedup:.2f}x"
        )


def predict_merge(
    a: ILKernel,
    b: ILKernel,
    gpu: GPUSpec,
    launch: LaunchConfig | None = None,
    sim: SimConfig | None = None,
) -> MergeReport:
    """Time both kernels separately and merged through CAL, each in its
    own shader mode, over ``launch``'s domain, block and iterations."""
    launch = launch or LaunchConfig()
    device = Device(gpu)
    a_event, b_event, merged_event = (
        time_kernel(
            device, kernel, launch.domain, launch.block, launch.iterations, sim
        )
        for kernel in (a, b, merge_kernels(a, b))
    )
    return MergeReport(
        seconds_a=a_event.seconds,
        seconds_b=b_event.seconds,
        seconds_merged=merged_event.seconds,
        bound_a=a_event.bottleneck,
        bound_b=b_event.bottleneck,
        bound_merged=merged_event.bottleneck,
        merged_result=merged_event.result,
    )
