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


#: the bank of each readable location in :func:`_execute_program`: GPRs,
#: clause temporaries, the previous bundle's results (PV.x-w at keys 0-3,
#: PS at 4), R0 and the constants read so far.  Bank 5 stays empty, so a
#: read of any other location takes the checked path, as does a read of
#: a value its bank lacks.
_BANKS = {
    ValueLocation.GPR: 0,
    ValueLocation.CLAUSE_TEMP: 1,
    ValueLocation.PREVIOUS_VECTOR: 2,
    ValueLocation.PREVIOUS_SCALAR: 2,
    ValueLocation.POSITION: 3,
    ValueLocation.CONSTANT: 4,
}


def _source(value: Value) -> tuple:
    """``(bank, key, negate, value)``: where a read of ``value`` looks."""
    location, key = value.location, value.index
    bank = _BANKS.get(location, 5)
    if location is ValueLocation.PREVIOUS_SCALAR:
        key = 4
    elif location is ValueLocation.POSITION:
        key = 0
    elif bank == 2 and key not in range(4):
        bank = 5  # PV has no such slot
    return bank, key, value.negate, value


def _destination(value: Value) -> tuple:
    """``(bank, key, value)``: where a write of ``value`` goes."""
    return _BANKS.get(value.location, 5), value.index, value


def _plans(clause: ALUClause) -> tuple:
    """Per bundle of ``clause``, per op: its mnemonic, its sources (see
    :func:`_source`), its destination (see :func:`_destination`) or None, and
    its result's key among the next bundle's PV/PS.  These are facts of
    the clause alone, so they are kept on the (interned) clause; whether
    each value exists is still checked on every read."""
    plans = clause.__dict__.get("_plans")
    if plans is None:
        plans = tuple(
            tuple(
                (
                    op.op.mnemonic,
                    tuple([_source(value) for value in op.sources]),
                    None if op.dest is None else _destination(op.dest),
                    4 if op.slot == "t" else "xyzw".index(op.slot),
                )
                for op in bundle.ops
            )
            for bundle in clause.bundles
        )
        object.__setattr__(clause, "_plans", plans)
    return plans


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
    banks: list[dict[int, np.ndarray]] = [{0: position}, {}, {}, {0: position}, {}, {}]
    clause_temps = banks[1]
    outputs: dict[int, np.ndarray] = {}

    def read(bank: int, key: int, negate: bool, value: Value) -> np.ndarray:
        arr = banks[bank].get(key)
        if arr is None:
            location, index = value.location, value.index
            if location is ValueLocation.CONSTANT:
                arr = banks[4][index] = constant_array(
                    constants.get(index, 0.0), shape
                )
            elif location is ValueLocation.GPR:
                raise ISAExecutionError(f"read of uninitialized R{index}")
            elif location is ValueLocation.CLAUSE_TEMP:
                raise ISAExecutionError(f"read of dead clause temporary T{index}")
            elif location is ValueLocation.PREVIOUS_VECTOR:
                raise ISAExecutionError(f"no previous-bundle result in slot {index}")
            elif location is ValueLocation.PREVIOUS_SCALAR:
                raise ISAExecutionError("no previous-bundle t-slot result")
            else:
                raise ISAExecutionError(f"unreadable value {value}")
        return -arr if negate else arr

    def write(dest: tuple, data: np.ndarray) -> None:
        bank, key, value = dest
        if bank > 1:  # not a GPR or a clause temporary
            raise ISAExecutionError(f"unwritable destination {value}")
        banks[bank][key] = data

    f32 = np.dtype(np.float32)
    # float32 overflow in long chains is expected and must match the IL
    # executor's behaviour (see repro.sim.functional).
    with np.errstate(over="ignore", invalid="ignore"):
        for clause in program.clauses:
            if isinstance(clause, TEXClause):
                for fetch in clause.fetches:
                    write(_destination(fetch.dest), arrays[fetch.resource])
                banks[2] = {}
                clause_temps.clear()
            elif isinstance(clause, ALUClause):
                clause_temps.clear()
                banks[2] = {}
                for plan in _plans(clause):
                    # co-issue: every op reads the pre-bundle state, and
                    # the results commit together (a lone op, as most
                    # are, at once)
                    writes = [] if len(plan) > 1 else None
                    results: dict[int, np.ndarray] = {}  # the next PV/PS
                    for mnemonic, sources, dest, slot in plan:
                        if len(sources) == 2:  # nearly every op: inline
                            (bank, key, negate, value), second = sources
                            x = banks[bank].get(key)
                            if x is None or negate:
                                x = read(bank, key, negate, value)
                            bank, key, negate, value = second
                            y = banks[bank].get(key)
                            if y is None or negate:
                                y = read(bank, key, negate, value)
                            result = ALU_OPS[mnemonic](x, y)
                        else:
                            result = ALU_OPS[mnemonic](
                                *[read(*source) for source in sources]
                            )
                        if result.dtype is not f32:
                            result = result.astype(np.float32)
                        if dest is None:
                            pass
                        elif writes is None:
                            write(dest, result)
                        else:
                            writes.append((dest, result))
                        results[slot] = result
                    for dest, result in writes or ():
                        write(dest, result)
                    banks[2] = results
            elif isinstance(clause, ExportClause):
                for store in clause.stores:
                    outputs[store.target] = np.array(read(*_source(store.source)))
            else:  # pragma: no cover - defensive
                raise ISAExecutionError(
                    f"unknown clause {type(clause).__name__}"
                )

    return outputs
