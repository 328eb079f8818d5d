"""Monte Carlo simulation — the paper's write-bound example (§IV-C).

"The StreamSDK Monte Carlo sample includes several kernels which are
global write bound.  This indicates that for these kernels, there is room
for additional ALU instructions (with no performance decrease) until the
point at which the bound changes from write to ALU."

The sample's path-generation kernels transform a couple of seed streams
with moderate arithmetic and write several result streams (paths/sums) to
global memory per thread.  :func:`montecarlo_kernel` reproduces that mix:
2 inputs, a short Box-Muller-flavoured transform per sample batch, and
``outputs`` global stores.  :func:`montecarlo_pi_reference` is the NumPy
reference the example uses for actual numbers.
"""

from __future__ import annotations

import numpy as np

from repro.apps.advisor import AppAnalysis, analyze_kernel
from repro.arch.specs import GPUSpec
from repro.il.builder import ILBuilder
from repro.il.module import ILKernel
from repro.il.opcodes import ILOp
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.sim.config import SimConfig


def montecarlo_kernel(
    outputs: int = 4,
    batches: int = 2,
    dtype: DataType = DataType.FLOAT4,
    mode: ShaderMode = ShaderMode.PIXEL,
    name: str = "montecarlo",
) -> ILKernel:
    """Path-batch kernel: 2 seed inputs, short transform, many global writes."""
    if outputs < 1:
        raise ValueError("at least one output stream is required")
    if batches < 1:
        raise ValueError("at least one sample batch is required")
    builder = ILBuilder(name, mode, dtype)
    seed_a = builder.declare_input()
    seed_b = builder.declare_input()
    outs = [
        builder.declare_output(MemorySpace.GLOBAL) for _ in range(outputs)
    ]

    a = builder.sample(seed_a)
    b = builder.sample(seed_b)
    # Box-Muller flavour: r = sqrt(-2 ln a); z = r * cos(2 pi b)
    state = builder.add(a, b)
    for _ in range(batches):
        logged = builder.alu(ILOp.LOG, state)
        radius = builder.alu(ILOp.SQRT, logged)
        angle = builder.alu(ILOp.COS, b)
        state = builder.mad(radius, angle, state)

    # Each output stream takes a distinct dependent value of the state.
    values = [state]
    while len(values) < outputs:
        values.append(builder.add(values[-1], a))
    for out, value in zip(outs, values):
        builder.store(out, value)
    return builder.build(
        metadata={
            "generator": "montecarlo",
            "outputs": outputs,
            "batches": batches,
        }
    )


def analyze_montecarlo(
    gpu: GPUSpec,
    outputs: int = 4,
    batches: int = 2,
    domain: tuple[int, int] = (1024, 1024),
    sim: SimConfig | None = None,
) -> AppAnalysis:
    """Measure the Monte Carlo kernel on a simulated chip."""
    kernel = montecarlo_kernel(outputs=outputs, batches=batches)
    return analyze_kernel(kernel, gpu, domain, sim)


def montecarlo_pi_reference(samples: int, seed: int = 2010) -> float:
    """Estimate pi by rejection sampling (NumPy reference)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xy = rng.random((samples, 2))
    inside = np.count_nonzero((xy**2).sum(axis=1) <= 1.0)
    return 4.0 * inside / samples
