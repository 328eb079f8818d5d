"""Hypothesis strategies that draw well-formed straight-line IL kernels.

The paper's three generators emit fully dependent chains with every
fetch up front, so on their own they barely exercise VLIW packing, PV/PS
forwarding, the t-slot rule, clause-temp reuse or clause splitting.
:func:`kernels` draws the shapes they never produce:

* every :class:`~repro.il.opcodes.ILOp`, with negated operands, over
  ``float`` and ``float4``;
* sources picked from every live value, so independent ops pack wide;
* fetches interleaved with ALU code, in pixel and compute mode;
* temporaries written more than once (each write is its own value);
* occasional dead ALU ops, which DCE removes;
* fetch and ALU counts that cross the 8-fetch and 128-op clause limits.

Every drawn kernel passes :func:`repro.il.validate.validate_kernel`, and
every fetched value reaches an output, so DCE never drops a fetch.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.il.instructions import (
    ALUInstruction,
    ExportInstruction,
    GlobalLoadInstruction,
    GlobalStoreInstruction,
    Operand,
    SampleInstruction,
    const,
    position,
    temp,
)
from repro.il.module import ConstantDecl, ILKernel, InputDecl, OutputDecl
from repro.il.opcodes import ILOp
from repro.il.types import DataType, MemorySpace, ShaderMode

ALL_OPS = tuple(ILOp)
MAX_INPUTS = 18  #: two full 8-fetch TEX clauses and then some
MAX_ALU = 300  #: two full 128-op ALU clauses and then some


@st.composite
def kernels(draw) -> ILKernel:
    """A valid straight-line kernel: fetches and ALU ops, then stores."""
    mode = draw(st.sampled_from((ShaderMode.PIXEL, ShaderMode.COMPUTE)))
    dtype = draw(st.sampled_from((DataType.FLOAT, DataType.FLOAT4)))
    n_inputs = draw(st.integers(1, MAX_INPUTS))
    n_outputs = draw(st.integers(1, 4))
    n_consts = draw(st.integers(0, 2))
    # Mostly short bodies; about one in four crosses the 128-op limit.
    n_alu = draw(st.integers(0, 40) | st.integers(0, MAX_ALU))
    pixel = mode is ShaderMode.PIXEL

    # Each fetch is placed before the ALU op with that index (n_alu:
    # after all of them); the first fetch leads the body, so every ALU
    # op has a value to read.
    fetch_at = sorted(
        draw(st.lists(st.integers(0, n_alu), min_size=n_inputs, max_size=n_inputs))
    )
    fetch_at[0] = 0
    fetch_order = draw(st.permutations(range(n_inputs)))

    body = []
    live: list[int] = []  # temps holding a value that can still be read
    read: dict[int, bool] = {}  # temp -> its current value has a reader
    next_temp = 0

    def fresh() -> int:
        nonlocal next_temp
        next_temp += 1
        return next_temp - 1

    # One draw per choice keeps generation cheap: a kernel makes several
    # hundred of them.
    def dest() -> int:
        """A fresh temp, or (half the time) one whose value was read."""
        spent = [r for r in live if read[r]]
        pick = draw(st.integers(0, 2 * len(spent))) - len(spent)
        if pick < 0:
            reg = spent[pick]
            live.remove(reg)
        else:
            reg = fresh()
        return reg

    def source() -> Operand:
        """A live temp or, rarely, a constant; negated when odd."""
        pick = draw(st.integers(0, 2 * len(live) + n_consts - 1))
        if pick >= 2 * len(live):
            return Operand(const(pick - 2 * len(live)))
        reg = live[pick >> 1]
        read[reg] = True
        return Operand(temp(reg), negate=bool(pick & 1))

    def fetch(resource: int) -> None:
        reg = dest()
        coord = Operand(position())
        if pixel:
            body.append(SampleInstruction(temp(reg), resource, coord))
        else:
            body.append(GlobalLoadInstruction(temp(reg), coord, resource))
        live.append(reg)
        read[reg] = False

    fetches = iter(zip(fetch_at, fetch_order))
    pending = next(fetches, None)
    for index in range(n_alu + 1):
        while pending is not None and pending[0] == index:
            fetch(pending[1])
            pending = next(fetches, None)
        if index == n_alu:
            break
        op = draw(st.sampled_from(ALL_OPS))
        spent = [r for r in live if read[r]]
        if spent and draw(st.integers(0, 15)) == 0:
            # A dead op: reads only values another op reads, writes a
            # temp nothing reads.
            srcs = tuple(
                Operand(temp(draw(st.sampled_from(spent))))
                for _ in range(op.arity)
            )
            body.append(ALUInstruction(op, temp(fresh()), srcs))
            continue
        srcs = tuple(source() for _ in range(op.arity))
        reg = dest()
        body.append(ALUInstruction(op, temp(reg), srcs))
        live.append(reg)
        read[reg] = False

    # Fold every unread value into an output, so everything is live.
    unread = [r for r in live if not read[r]]
    results = []
    for target in range(n_outputs):
        group = unread[target::n_outputs] or [live[-1]]
        acc = group[0]
        for reg in group[1:]:
            out = fresh()
            srcs = (Operand(temp(acc)), Operand(temp(reg)))
            body.append(ALUInstruction(ILOp.ADD, temp(out), srcs))
            acc = out
        results.append(acc)
    for target, acc in enumerate(results):
        value = Operand(temp(acc), negate=draw(st.booleans()))
        if pixel:
            body.append(ExportInstruction(target, value))
        else:
            body.append(GlobalStoreInstruction(Operand(position()), value, target))

    in_space = MemorySpace.TEXTURE if pixel else MemorySpace.GLOBAL
    out_space = MemorySpace.COLOR_BUFFER if pixel else MemorySpace.GLOBAL
    return ILKernel(
        name="fuzz",
        mode=mode,
        dtype=dtype,
        inputs=tuple(InputDecl(i, in_space, dtype) for i in range(n_inputs)),
        outputs=tuple(OutputDecl(i, out_space, dtype) for i in range(n_outputs)),
        constants=tuple(ConstantDecl(i, dtype) for i in range(n_consts)),
        body=tuple(body),
    )
