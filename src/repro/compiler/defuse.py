"""The def-use index: which instruction wrote the value each operand reads.

DCE, VLIW packing and register allocation all need, for each source
operand, the instruction that produced its value.  :func:`build_defuse`
finds them in one forward pass and names them by *body position*, so the
passes index lists instead of maps keyed by
:class:`~repro.il.instructions.Register`.  An ``rN`` may be written more
than once; each write is its own value.

:func:`repro.compiler.compile_kernel` builds the index once per body and
passes it down.  It is not memoized on the kernel: the compile cache
keeps kernels alive, and the index would live as long.
"""

from __future__ import annotations

from repro.il.instructions import ALUInstruction, ILInstruction, RegisterFile

#: ``index[i][k]``: the body position that wrote the value operand ``k``
#: of ``body[i].used_registers()`` reads; -1 for a non-temporary
#: (position, constant, literal) or a temporary never written.  Rows are
#: tuples of ints, which the garbage collector stops tracking.
DefUse = list[tuple[int, ...]]


def build_defuse(body: tuple[ILInstruction, ...]) -> DefUse:
    """Index ``body`` in one forward pass."""
    temp_file = RegisterFile.TEMP
    # The reaching definition of each temporary, keyed by its index, so
    # no Register is ever hashed.
    reaching: dict[int, int] = {}
    reach = reaching.get
    index: DefUse = []
    for pos, instr in enumerate(body):
        if type(instr) is ALUInstruction:  # nearly every position
            # Non-temporaries read -1: no temporary has index None.
            sources = instr.sources
            if len(sources) == 2:
                a, b = sources
                index.append((reach(a.temp_index, -1), reach(b.temp_index, -1)))
            else:
                index.append(tuple([reach(s.temp_index, -1) for s in sources]))
            reg = instr.dest
            if reg.file is temp_file:
                reaching[reg.index] = pos
            continue
        used = instr.used_registers()
        index.append(
            tuple([reach(r.index, -1) if r.file is temp_file else -1 for r in used])
        )
        for reg in instr.defined_registers():
            if reg.file is temp_file:
                reaching[reg.index] = pos
    return index

