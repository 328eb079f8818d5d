"""Functional (numerical) execution of IL kernels.

The timing simulator answers "how long"; this module answers "what values".
Kernels in the suite are element-wise — every thread samples its own
coordinate — so execution vectorizes over the whole domain: each IL
instruction becomes one NumPy array operation (per the repository's
HPC-Python guideline of vectorizing hot loops).

Arrays are ``float32`` with shape ``(height, width, components)``.
"""

from __future__ import annotations

import numpy as np

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    Operand,
    RegisterFile,
    SampleInstruction,
)
from repro.il.module import ILKernel


class ExecutionError(ValueError):
    """Raised when a kernel cannot be executed numerically."""


_F32 = np.dtype(np.float32)

#: The float32 semantics of every ALU opcode, keyed by mnemonic.  Both
#: executors dispatch through this one table (:mod:`repro.isa.interp`
#: imports it), so the IL executor and the ISA interpreter apply the same
#: NumPy operations in the same order and agree bitwise.
ALU_OPS = {
    "mov": lambda a: a,
    "flr": np.floor,
    "frc": lambda a: a - np.floor(a),
    "rcp": lambda a: np.reciprocal(a, where=a != 0, out=np.zeros_like(a)),
    "rsq": lambda a: np.where(a > 0, 1.0 / np.sqrt(np.abs(a) + 1e-30), 0.0),
    "sqrt": lambda a: np.sqrt(np.abs(a)),
    "exp": np.exp,
    "log": lambda a: np.log(np.abs(a) + 1e-30),
    "sin": np.sin,
    "cos": np.cos,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "mad": lambda a, b, c: a * b + c,
    "dp4": lambda a, b: np.broadcast_to(
        np.sum(a * b, axis=2, keepdims=True), a.shape
    ),
}


def bind_inputs(
    kernel: ILKernel,
    inputs: dict[int, np.ndarray],
    shape: tuple[int, int, int],
    error: type[ValueError],
) -> dict[int, np.ndarray]:
    """``kernel``'s inputs as float32 arrays of ``shape``, by input index.

    Both executors bind through here; a bad input raises ``error``.
    """
    height, width, components = shape
    arrays: dict[int, np.ndarray] = {}
    for decl in kernel.inputs:
        try:
            raw = inputs[decl.index]
        except KeyError:
            raise error(f"input {decl.index} not provided") from None
        if type(raw) is np.ndarray and raw.dtype is _F32 and raw.shape == shape:
            arrays[decl.index] = raw  # as seeded: nothing to convert
            continue
        arr = np.asarray(raw, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.shape[:2] != (height, width):
            raise error(
                f"input {decl.index} has shape {arr.shape[:2]}, expected "
                f"{(height, width)}"
            )
        if arr.shape[2] == 1 and components > 1:
            arr = np.broadcast_to(arr, shape)
        elif arr.shape[2] != components:
            raise error(
                f"input {decl.index} has {arr.shape[2]} components, kernel "
                f"expects {components}"
            )
        arrays[decl.index] = arr
    return arrays


def constant_array(value: np.ndarray | float, shape: tuple) -> np.ndarray:
    """A constant-buffer entry broadcast over the domain."""
    return np.broadcast_to(
        np.asarray(value, dtype=np.float32).reshape(1, 1, -1)
        if np.ndim(value)
        else np.float32(value),
        shape,
    )


def position_array(shape: tuple[int, int, int]) -> np.ndarray:
    """The position/thread-id register: x in component 0, y in 1."""
    height, width, components = shape
    arr = np.zeros(shape, dtype=np.float32)
    arr[:, :, 0] = np.arange(width, dtype=np.float32)
    if components > 1:
        arr[:, :, 1] = np.arange(height, dtype=np.float32)[:, np.newaxis]
    return arr


def execute_kernel(
    kernel: ILKernel,
    inputs: dict[int, np.ndarray],
    domain: tuple[int, int],
    constants: dict[int, np.ndarray | float] | None = None,
) -> dict[int, np.ndarray]:
    """Run ``kernel`` over ``domain`` and return its output arrays.

    ``inputs`` maps input index -> array of shape (height, width) or
    (height, width, components); outputs are keyed by output index with
    shape (height, width, components).
    """
    width, height = domain
    shape = (height, width, kernel.dtype.components)
    constants = constants or {}
    arrays = bind_inputs(kernel, inputs, shape, ExecutionError)

    # Temporaries are keyed by index, so no Register is hashed; any other
    # register a parsed kernel writes (an ``oN`` destination) by itself.
    temp_file = RegisterFile.TEMP
    regs: dict = {}
    defined = regs.get  # by ``Operand.temp_index``: None is no key
    outputs: dict[int, np.ndarray] = {}

    def read(operand: Operand) -> np.ndarray:
        reg = operand.register
        if reg.file is RegisterFile.CONST:
            arr = constant_array(constants.get(reg.index, 0.0), shape)
        elif reg.file is RegisterFile.POSITION:
            arr = position_array(shape)
        else:
            try:
                arr = regs[reg.index if reg.file is temp_file else reg]
            except KeyError:
                raise ExecutionError(f"read of undefined register {reg}") from None
        return -arr if operand.negate else arr

    # Long dependent chains legitimately overflow float32 (the chain's
    # input weights grow like Fibonacci numbers); infinities propagate
    # consistently through both this executor and the ISA interpreter.
    with np.errstate(over="ignore", invalid="ignore"):
        for instr in kernel.body:
            kind = type(instr)
            if kind is ALUInstruction:
                sources = instr.sources
                if len(sources) == 2:  # nearly every op: a temporary inline
                    a, b = sources
                    x = defined(a.temp_index)
                    if x is None or a.negate:
                        x = read(a)
                    y = defined(b.temp_index)
                    if y is None or b.negate:
                        y = read(b)
                    result = ALU_OPS[instr.op.mnemonic](x, y)
                else:
                    result = ALU_OPS[instr.op.mnemonic](*map(read, sources))
                if result.dtype is not _F32:
                    result = result.astype(np.float32)
                dest = instr.dest
                regs[dest.index if dest.file is temp_file else dest] = result
            elif kind is SampleInstruction or kind is GlobalLoadInstruction:
                dest = instr.dest
                regs[dest.index if dest.file is temp_file else dest] = arrays[
                    instr.resource if kind is SampleInstruction else instr.offset
                ]
            elif kind is ExportInstruction or kind is GlobalStoreInstruction:
                target = instr.target if kind is ExportInstruction else instr.offset
                outputs[target] = np.array(read(instr.source), dtype=np.float32)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unsupported instruction {instr!r}")

    return outputs
