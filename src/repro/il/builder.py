"""Fluent construction of IL kernels.

The builder hands out fresh virtual registers, tracks declarations and emits
instructions in order, mirroring how the paper's generators write IL text.

Example — the three-input add kernel behind the paper's Figure 2::

    b = ILBuilder("fig2", ShaderMode.PIXEL, DataType.FLOAT4)
    ins = [b.declare_input() for _ in range(3)]
    out = b.declare_output()
    acc = b.sample(ins[0])
    acc = b.add(acc, b.sample(ins[1]))
    acc = b.add(acc, b.sample(ins[2]))
    b.store(out, acc)
    kernel = b.build()
"""

from __future__ import annotations

import itertools

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILInstruction,
    Operand,
    Register,
    SampleInstruction,
    const,
    operand,
    position,
    temp,
)
from repro.il.module import ConstantDecl, ILKernel, InputDecl, OutputDecl
from repro.il.opcodes import ILOp
from repro.il.types import DataType, MemorySpace, ShaderMode

# Read once: on Python 3.11 ``ILOp.X`` goes through ``EnumType.__getattr__``.
_ADD, _SUB, _MUL, _MAD, _MOV = ILOp.ADD, ILOp.SUB, ILOp.MUL, ILOp.MAD, ILOp.MOV


class ILBuilder:
    """Incrementally builds an :class:`~repro.il.module.ILKernel`."""

    def __init__(self, name: str, mode: ShaderMode, dtype: DataType) -> None:
        self.name = name
        self.mode = mode
        self.dtype = dtype
        self._inputs: list[InputDecl] = []
        self._outputs: list[OutputDecl] = []
        self._constants: list[ConstantDecl] = []
        self._body: list[ILInstruction] = []
        self._temps = map(temp, itertools.count())  # r0, r1, ... in order

    # ---- declarations ----------------------------------------------------
    def declare_input(self, space: MemorySpace = MemorySpace.TEXTURE) -> InputDecl:
        """Declare an input stream and return its handle."""
        decl = InputDecl(len(self._inputs), space, self.dtype)
        self._inputs.append(decl)
        return decl

    def declare_output(
        self, space: MemorySpace | None = None
    ) -> OutputDecl:
        """Declare an output stream.

        Defaults to a color buffer in pixel mode (streaming store) and to
        global memory in compute mode, where color buffers do not exist
        (§III-C).
        """
        if space is None:
            space = (
                MemorySpace.COLOR_BUFFER
                if self.mode is ShaderMode.PIXEL
                else MemorySpace.GLOBAL
            )
        if space is MemorySpace.COLOR_BUFFER and self.mode is ShaderMode.COMPUTE:
            raise ValueError("compute shader mode cannot output to color buffers")
        decl = OutputDecl(len(self._outputs), space, self.dtype)
        self._outputs.append(decl)
        return decl

    def declare_constant(self) -> Register:
        """Declare a constant-buffer entry and return a register naming it."""
        decl = ConstantDecl(len(self._constants), self.dtype)
        self._constants.append(decl)
        return const(decl.index)

    # ---- registers --------------------------------------------------------
    def fresh(self) -> Register:
        """Allocate a fresh virtual temporary."""
        return next(self._temps)

    @property
    def position(self) -> Register:
        """Interpolated position (pixel) / thread id (compute)."""
        return position()

    # ---- instruction emission ---------------------------------------------
    def emit(self, instruction: ILInstruction) -> None:
        self._body.append(instruction)

    def sample(self, source: InputDecl, coord: Register | None = None) -> Register:
        """Fetch one element of an input stream into a fresh register.

        Texture inputs become ``sample_resource`` instructions; global
        inputs become uncached ``g[]`` loads.
        """
        coord_op = (position() if coord is None else coord).as_operand
        dest = self.fresh()
        if source.space is MemorySpace.TEXTURE:
            instr = SampleInstruction(dest, source.index, coord_op)
        else:
            instr = GlobalLoadInstruction(dest, coord_op, offset=source.index)
        self._body.append(instr)
        return dest

    def alu(self, op: ILOp, *sources: Register | Operand) -> Register:
        """Emit an ALU instruction writing a fresh register."""
        return self._alu(op, tuple([s.as_operand for s in sources]))

    def _alu(self, op: ILOp, sources: tuple[Operand, ...]) -> Register:
        # The generators' hot path: the named ops below come straight here.
        dest = next(self._temps)
        self._body.append(ALUInstruction(op, dest, sources))
        return dest

    def add(self, a: Register | Operand, b: Register | Operand) -> Register:
        # The generators' chains are all adds: ``_alu`` written out.
        dest = next(self._temps)
        self._body.append(ALUInstruction(_ADD, dest, (a.as_operand, b.as_operand)))
        return dest

    def sub(self, a: Register | Operand, b: Register | Operand) -> Register:
        return self._alu(_SUB, (a.as_operand, b.as_operand))

    def mul(self, a: Register | Operand, b: Register | Operand) -> Register:
        return self._alu(_MUL, (a.as_operand, b.as_operand))

    def mad(
        self,
        a: Register | Operand,
        b: Register | Operand,
        c: Register | Operand,
    ) -> Register:
        return self._alu(_MAD, (a.as_operand, b.as_operand, c.as_operand))

    def mov(self, a: Register | Operand) -> Register:
        return self._alu(_MOV, (a.as_operand,))

    def store(self, target: OutputDecl, value: Register | Operand) -> None:
        """Write a register to an output stream."""
        src = operand(value)
        if target.space is MemorySpace.COLOR_BUFFER:
            self.emit(ExportInstruction(target.index, src))
        else:
            self.emit(
                GlobalStoreInstruction(
                    operand(self.position), src, offset=target.index
                )
            )

    # ---- finalize -----------------------------------------------------------
    def build(self, metadata: dict | None = None) -> ILKernel:
        """Produce the immutable kernel (validated)."""
        from repro.il.validate import validate_kernel

        kernel = ILKernel(
            name=self.name,
            mode=self.mode,
            dtype=self.dtype,
            inputs=tuple(self._inputs),
            outputs=tuple(self._outputs),
            constants=tuple(self._constants),
            body=tuple(self._body),
            metadata=dict(metadata or {}),
        )
        validate_kernel(kernel)
        return kernel
