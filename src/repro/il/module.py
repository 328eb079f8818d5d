"""The IL kernel container.

An :class:`ILKernel` bundles the declarations (inputs, outputs, constants)
with the instruction body and the execution mode/data type.  It is the unit
passed to :func:`repro.compiler.compile_kernel` and to the CAL runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    ILInstruction,
    SampleInstruction,
)
from repro.il.types import DataType, MemorySpace, ShaderMode


#: read once: on Python 3.11 each enum class attribute read goes through
#: ``EnumType.__getattr__``, and every declaration checks its space.
_INPUT_SPACES = (MemorySpace.TEXTURE, MemorySpace.GLOBAL)
_OUTPUT_SPACES = (MemorySpace.COLOR_BUFFER, MemorySpace.GLOBAL)


@dataclass(frozen=True)
class InputDecl:
    """An input stream: a texture resource or a global-memory buffer."""

    index: int
    space: MemorySpace
    dtype: DataType

    def __post_init__(self) -> None:
        if self.space not in _INPUT_SPACES:
            raise ValueError(f"input {self.index}: invalid space {self.space}")


@dataclass(frozen=True)
class OutputDecl:
    """An output stream: a color buffer (pixel mode) or global memory."""

    index: int
    space: MemorySpace
    dtype: DataType

    def __post_init__(self) -> None:
        if self.space not in _OUTPUT_SPACES:
            raise ValueError(f"output {self.index}: invalid space {self.space}")


@dataclass(frozen=True)
class ConstantDecl:
    """A constant-buffer entry."""

    index: int
    dtype: DataType


@dataclass(frozen=True)
class ILKernel:
    """A complete IL program.

    Instances are immutable; use :meth:`with_body` or ``dataclasses.replace``
    to derive variants.
    """

    name: str
    mode: ShaderMode
    dtype: DataType
    inputs: tuple[InputDecl, ...] = ()
    outputs: tuple[OutputDecl, ...] = ()
    constants: tuple[ConstantDecl, ...] = ()
    body: tuple[ILInstruction, ...] = ()
    #: free-form provenance (generator name and parameters).
    metadata: dict = field(default_factory=dict, compare=False)

    # ---- derived ---------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @cached_property  # binding a launch looks up one per stream
    def input_decls(self) -> dict[int, InputDecl]:
        """The input declarations by index (the first, should one repeat)."""
        return {decl.index: decl for decl in reversed(self.inputs)}

    @cached_property
    def output_decls(self) -> dict[int, OutputDecl]:
        """The output declarations by index (the first, should one repeat)."""
        return {decl.index: decl for decl in reversed(self.outputs)}

    def instructions(self) -> Iterator[ILInstruction]:
        return iter(self.body)

    def alu_instruction_count(self) -> int:
        """Number of ALU instructions in the body (IL level)."""
        return sum(1 for i in self.body if isinstance(i, ALUInstruction))

    def fetch_instruction_count(self) -> int:
        """Number of input fetches (texture samples + global loads)."""
        return sum(
            1
            for i in self.body
            if isinstance(i, (SampleInstruction, GlobalLoadInstruction))
        )

    def store_instruction_count(self) -> int:
        """Number of output stores (exports + global stores)."""
        return sum(
            1
            for i in self.body
            if isinstance(i, (ExportInstruction, GlobalStoreInstruction))
        )

    def input_space(self) -> MemorySpace:
        """The common memory space of all inputs.

        Every paper kernel reads all its inputs through one path (texture or
        global); mixed-space kernels raise.
        """
        spaces = {d.space for d in self.inputs}
        if not spaces:
            return MemorySpace.TEXTURE
        if len(spaces) > 1:
            raise ValueError(f"kernel {self.name!r} mixes input spaces {spaces}")
        return next(iter(spaces))

    def output_space(self) -> MemorySpace:
        """The common memory space of all outputs."""
        spaces = {d.space for d in self.outputs}
        if not spaces:
            raise ValueError(f"kernel {self.name!r} has no outputs")
        if len(spaces) > 1:
            raise ValueError(f"kernel {self.name!r} mixes output spaces {spaces}")
        return next(iter(spaces))

    def with_body(self, body: tuple[ILInstruction, ...]) -> "ILKernel":
        return replace(self, body=tuple(body))

    def summary(self) -> str:
        """One-line description used in logs and reports."""
        return (
            f"{self.name} [{self.mode.value}/{self.dtype.value}] "
            f"in={self.num_inputs}({self.input_space().value}) "
            f"out={self.num_outputs} alu={self.alu_instruction_count()} "
            f"fetch={self.fetch_instruction_count()}"
        )
