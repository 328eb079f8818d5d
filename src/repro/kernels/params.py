"""Kernel-generation parameters shared by all generators, and recipes."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace

from repro.il.module import ILKernel
from repro.il.types import DataType, MemorySpace, ShaderMode


def alu_ops_for_ratio(num_inputs: int, alu_fetch_ratio: float) -> int:
    """ALU-operation count for a target SKA-convention ALU:Fetch ratio.

    The SKA reports 1.0 for 4 ALU ops per fetch (§III-A), so a ratio of
    ``r`` over ``n`` inputs requires ``n * 4 * r`` operations.  The chain
    must consume every input, so the count can never drop below
    ``n - 1`` additions.
    """
    if num_inputs < 2:
        raise ValueError("the generic chain needs at least two inputs")
    if alu_fetch_ratio <= 0:
        raise ValueError("ALU:Fetch ratio must be positive")
    return max(int(round(num_inputs * 4 * alu_fetch_ratio)), num_inputs - 1)


@dataclass(frozen=True)
class KernelParams:
    """Parameters of a generated micro-benchmark kernel (§III).

    ``alu_fetch_ratio`` is in the SKA convention.  ``space``/``step`` are
    only meaningful for the register-usage and clause-usage generators.
    """

    inputs: int = 8
    outputs: int = 1
    constants: int = 0
    alu_fetch_ratio: float = 1.0
    dtype: DataType = DataType.FLOAT
    mode: ShaderMode = ShaderMode.PIXEL
    input_space: MemorySpace = MemorySpace.TEXTURE
    output_space: MemorySpace | None = None  #: None = mode default
    #: explicit ALU-op override; None derives the count from the ratio.
    alu_ops: int | None = None
    space: int = 8
    step: int = 0

    def __post_init__(self) -> None:
        if self.inputs < 2:
            raise ValueError("at least two inputs are required (Figure 3)")
        if self.outputs < 1:
            raise ValueError("a kernel must have at least one output (§III)")
        if self.constants < 0:
            raise ValueError("negative constant count")
        if self.alu_fetch_ratio <= 0:
            raise ValueError("ALU:Fetch ratio must be positive")
        if self.space < 1:
            raise ValueError("space must be at least 1")
        if self.step < 0:
            raise ValueError("step cannot be negative")
        if self.space * self.step >= self.inputs:
            if self.step > 0:
                raise ValueError(
                    f"space*step ({self.space}*{self.step}) must leave at "
                    f"least one up-front input out of {self.inputs}"
                )
        if self.input_space not in (MemorySpace.TEXTURE, MemorySpace.GLOBAL):
            raise ValueError(f"invalid input space {self.input_space}")
        if self.output_space is not None and not self.output_space.is_output_space:
            raise ValueError(f"invalid output space {self.output_space}")

    @property
    def resolved_output_space(self) -> MemorySpace:
        """Default output space: color buffers in pixel mode, global in compute."""
        if self.output_space is not None:
            return self.output_space
        return (
            MemorySpace.COLOR_BUFFER
            if self.mode is ShaderMode.PIXEL
            else MemorySpace.GLOBAL
        )

    @property
    def total_alu_ops(self) -> int:
        """The ALU-op budget for the kernel body."""
        if self.alu_ops is not None:
            return max(self.alu_ops, self.inputs - 1)
        return alu_ops_for_ratio(self.inputs, self.alu_fetch_ratio)

    def with_(self, **changes) -> "KernelParams":
        """Return a modified copy (convenience around dataclasses.replace)."""
        return replace(self, **changes)

    def label(self) -> str:
        """Short label used in result series and logs."""
        return (
            f"in{self.inputs}_out{self.outputs}_r{self.alu_fetch_ratio:g}_"
            f"{self.dtype.value}_{self.mode.value}"
        )


@dataclass(frozen=True)
class KernelRecipe:
    """A generator and its parameters: every figure and grid kernel.

    ``generator`` names ``repro.kernels.<generator>.generate_<generator>``
    (``generic``, ``register_usage`` or ``clause_usage``).  Equal recipes
    build content-identical kernels, so work units carry the recipe and
    the jobs engine builds a kernel only for a unit it runs.
    """

    generator: str
    params: KernelParams

    def build(self) -> ILKernel:
        """Generate the kernel.  The generator is looked up on its module
        at call time, so a rebound ``generate_*`` sees every build."""
        module = importlib.import_module(f"repro.kernels.{self.generator}")
        return getattr(module, f"generate_{self.generator}")(self.params)
