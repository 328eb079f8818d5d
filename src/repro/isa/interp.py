"""Numerical execution of compiled ISA programs.

The IL interpreter (:mod:`repro.sim.functional`) defines kernel
semantics; this module executes the *compiled* clause form — general
purpose registers, the two clause temporaries, and the per-slot
``PV``/``PS`` previous-bundle registers — so the test suite can prove the
compiler preserves semantics end to end (VLIW packing, PV forwarding,
clause-temp allocation and GPR reuse included).

Bundle semantics follow the hardware: all operations in a bundle read
their sources from the pre-bundle state (they co-issue), results commit
together, and ``PV``/``PS`` expose them to exactly the next bundle.
Clause temporaries "do not hold their value across clauses" (§II-A) and
are invalidated at clause boundaries.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.isa.clauses import (
    ALUClause,
    ExportClause,
    TEXClause,
    Value,
    ValueLocation,
)
from repro.isa.program import ISAProgram
from repro.sim.functional import (
    ALU_OPS,
    bind_inputs,
    constant_array,
    position_array,
)


class ISAExecutionError(ValueError):
    """Raised when a compiled program cannot be executed numerically."""


def execute_program(
    program: ISAProgram,
    inputs: dict[int, np.ndarray],
    domain: tuple[int, int],
    constants: dict[int, np.ndarray | float] | None = None,
) -> dict[int, np.ndarray]:
    """Run a compiled program over ``domain`` and return output arrays.

    Input/constant conventions match
    :func:`repro.sim.functional.execute_kernel`, so the two executors are
    directly comparable.
    """
    with telemetry.span(
        "isa.execute",
        kernel=program.kernel.name,
        domain=f"{domain[0]}x{domain[1]}",
    ):
        return _execute_program(program, inputs, domain, constants)


def _execute_program(
    program: ISAProgram,
    inputs: dict[int, np.ndarray],
    domain: tuple[int, int],
    constants: dict[int, np.ndarray | float] | None = None,
) -> dict[int, np.ndarray]:
    width, height = domain
    shape = (height, width, program.kernel.dtype.components)
    constants = constants or {}
    arrays = bind_inputs(program.kernel, inputs, shape, ISAExecutionError)
    position = position_array(shape)  # R0 holds the position/thread id

    gprs: dict[int, np.ndarray] = {0: position}
    clause_temps: dict[int, np.ndarray] = {}
    prev_vector: dict[int, np.ndarray] = {}
    prev_scalar: np.ndarray | None = None
    outputs: dict[int, np.ndarray] = {}

    def read(value: Value) -> np.ndarray:
        location = value.location
        if location is ValueLocation.GPR:
            if value.index not in gprs:
                raise ISAExecutionError(f"read of uninitialized R{value.index}")
            arr = gprs[value.index]
        elif location is ValueLocation.POSITION:
            arr = position
        elif location is ValueLocation.CLAUSE_TEMP:
            if value.index not in clause_temps:
                raise ISAExecutionError(
                    f"read of dead clause temporary T{value.index}"
                )
            arr = clause_temps[value.index]
        elif location is ValueLocation.PREVIOUS_VECTOR:
            if value.index not in prev_vector:
                raise ISAExecutionError(
                    f"no previous-bundle result in slot {value.index}"
                )
            arr = prev_vector[value.index]
        elif location is ValueLocation.PREVIOUS_SCALAR:
            if prev_scalar is None:
                raise ISAExecutionError("no previous-bundle t-slot result")
            arr = prev_scalar
        elif location is ValueLocation.CONSTANT:
            arr = constant_array(constants.get(value.index, 0.0), shape)
        else:
            raise ISAExecutionError(f"unreadable value {value}")
        return -arr if value.negate else arr

    def write(value: Value, data: np.ndarray) -> None:
        if value.location is ValueLocation.GPR:
            gprs[value.index] = data
        elif value.location is ValueLocation.CLAUSE_TEMP:
            clause_temps[value.index] = data
        else:
            raise ISAExecutionError(f"unwritable destination {value}")

    gpr = ValueLocation.GPR
    clause_temp = ValueLocation.CLAUSE_TEMP
    previous_vector = ValueLocation.PREVIOUS_VECTOR
    f32 = np.dtype(np.float32)
    # float32 overflow in long chains is expected and must match the IL
    # executor's behaviour (see repro.sim.functional).
    with np.errstate(over="ignore", invalid="ignore"):
        for clause in program.clauses:
            if isinstance(clause, TEXClause):
                for fetch in clause.fetches:
                    write(fetch.dest, arrays[fetch.resource])
                prev_vector, prev_scalar = {}, None
                clause_temps.clear()
            elif isinstance(clause, ALUClause):
                clause_temps.clear()
                prev_vector, prev_scalar = {}, None
                for bundle in clause.bundles:
                    # co-issue: read everything against pre-bundle state
                    staged: list[tuple[Value, np.ndarray]] = []
                    next_vector: dict[int, np.ndarray] = {}
                    next_scalar: np.ndarray | None = None
                    for op in bundle.ops:
                        sources = []
                        for value in op.sources:
                            # GPR, PV and T values are read inline; the
                            # rest, and a missing value, via read()
                            location = value.location
                            if location is gpr:
                                arr = gprs.get(value.index)
                            elif location is previous_vector:
                                arr = prev_vector.get(value.index)
                            elif location is clause_temp:
                                arr = clause_temps.get(value.index)
                            else:
                                arr = None
                            if arr is None:
                                sources.append(read(value))
                            else:
                                sources.append(-arr if value.negate else arr)
                        result = ALU_OPS[op.op.mnemonic](*sources)
                        if result.dtype is not f32:
                            result = result.astype(np.float32)
                        if op.dest is not None:
                            staged.append((op.dest, result))
                        if op.slot == "t":
                            next_scalar = result
                        else:
                            next_vector["xyzw".index(op.slot)] = result
                    for dest, result in staged:
                        write(dest, result)
                    prev_vector, prev_scalar = next_vector, next_scalar
            elif isinstance(clause, ExportClause):
                for store in clause.stores:
                    outputs[store.target] = np.array(read(store.source))
            else:  # pragma: no cover - defensive
                raise ISAExecutionError(
                    f"unknown clause {type(clause).__name__}"
                )

    return outputs
