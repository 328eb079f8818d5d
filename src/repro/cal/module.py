"""Loaded kernel modules: compiled program + resource bindings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cal.errors import BindingError
from repro.cal.resource import Resource
from repro.il.module import ILKernel, InputDecl, OutputDecl
from repro.isa.program import ISAProgram


@dataclass
class Module:
    """An IL kernel compiled for a device, with its input/output bindings."""

    kernel: ILKernel
    program: ISAProgram
    inputs: dict[int, Resource] = field(default_factory=dict)
    outputs: dict[int, Resource] = field(default_factory=dict)
    constants: dict[int, np.ndarray | float] = field(default_factory=dict)

    def bind_input(self, index: int, resource: Resource) -> None:
        self._bind("input", self.kernel.input_decls, self.inputs, index, resource)

    def bind_output(self, index: int, resource: Resource) -> None:
        self._bind("output", self.kernel.output_decls, self.outputs, index, resource)

    @staticmethod
    def _bind(
        kind: str,
        decls: dict[int, InputDecl] | dict[int, OutputDecl],
        bound: dict[int, Resource],
        index: int,
        resource: Resource,
    ) -> None:
        decl = decls.get(index)
        if decl is None:
            raise BindingError(f"kernel declares no {kind} {index}")
        if resource.space is not decl.space:
            raise BindingError(
                f"{kind} {index} expects {decl.space.value} memory, got "
                f"{resource.space.value}"
            )
        if resource.dtype is not decl.dtype:
            raise BindingError(
                f"{kind} {index} expects {decl.dtype.value}, got "
                f"{resource.dtype.value}"
            )
        bound[index] = resource

    def set_constant(self, index: int, value: np.ndarray | float) -> None:
        if index >= len(self.kernel.constants):
            raise BindingError(f"kernel declares no constant {index}")
        self.constants[index] = value

    def validate_bindings(self, domain: tuple[int, int]) -> None:
        """Check all declarations are bound and extents cover the domain."""
        width, height = domain
        for kind, decls, bound in (
            ("input", self.kernel.inputs, self.inputs),
            ("output", self.kernel.outputs, self.outputs),
        ):
            for decl in decls:
                resource = bound.get(decl.index)
                if resource is None:
                    raise BindingError(f"{kind} {decl.index} is not bound")
                if resource.width < width or resource.height < height:
                    raise BindingError(
                        f"{kind} {decl.index} ({resource.width}x"
                        f"{resource.height}) smaller than domain "
                        f"{width}x{height}"
                    )
