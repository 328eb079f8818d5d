"""The generic micro-benchmark kernel (paper Figure 3).

Structure::

    r[0] = input[0] + input[1]
    for x in 2..inputs:  r[k] = r[k-1] + input[x]     # consume every input
    while alu_ops left:  r[k] = r[k-1] + r[k-2]       # dependent chain
    output[j] = last chain values

The chain's "high data dependency provides the ability to control the
number of global purpose registers by either the number of inputs or the
number of outputs", and "does not allow for VLIW packing and so the number
of ALU instructions is not dependent on data type" (§III).

Constants, when requested, replace the ``r[k-2]`` operand round-robin —
this uses every declared constant without changing the operation count or
breaking the chain.
"""

from __future__ import annotations

from repro.il.builder import ILBuilder
from repro.il.module import ILKernel
from repro.kernels.params import KernelParams


def generate_generic(params: KernelParams, name: str | None = None) -> ILKernel:
    """Generate the Figure 3 kernel for ``params``."""
    total_ops = params.total_alu_ops
    if params.outputs > total_ops:
        raise ValueError(
            f"{params.outputs} outputs need at least {params.outputs} chain "
            f"values but only {total_ops} ALU ops are budgeted"
        )

    builder = ILBuilder(
        name or f"generic_{params.label()}", params.mode, params.dtype
    )
    inputs = [
        builder.declare_input(params.input_space) for _ in range(params.inputs)
    ]
    outputs = [
        builder.declare_output(params.resolved_output_space)
        for _ in range(params.outputs)
    ]
    constants = [builder.declare_constant() for _ in range(params.constants)]

    # All sampling up front — the layout the CAL compiler produces (§III-E).
    sampled = [builder.sample(decl) for decl in inputs]

    chain: list = []
    remaining = total_ops

    # r[0] = input[0] + input[1]
    chain.append(builder.add(sampled[0], sampled[1]))
    remaining -= 1

    # consume the remaining inputs
    for x in range(2, params.inputs):
        chain.append(builder.add(chain[-1], sampled[x]))
        remaining -= 1

    # dependent-chain filler: r[k] = r[k-1] + r[k-2] (or a constant)
    for k in range(remaining):
        if constants:
            second = constants[k % len(constants)]
        else:
            second = chain[-2] if len(chain) >= 2 else sampled[0]
        chain.append(builder.add(chain[-1], second))

    # outputs read the chain tail: output[j] <- chain[-1-j]
    for j, out in enumerate(outputs):
        builder.store(out, chain[-1 - j])

    return builder.build(
        metadata={
            "generator": "generic",
            "inputs": params.inputs,
            "outputs": params.outputs,
            "constants": params.constants,
            "alu_ops": total_ops,
            "alu_fetch_ratio": params.alu_fetch_ratio,
        }
    )
