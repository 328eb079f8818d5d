"""Matrix multiplication — the paper's fetch-bound example (§IV-B).

The StreamSDK matmul kernel computes a block of C per thread by streaming
strips of A and B through the texture units with an unrolled inner
product: per unrolled step it issues two fetches and one MAD, putting the
SKA ratio far below the good band — "the matrix multiplication samples in
the StreamSDK are fetch bound, meaning not enough ALU operations are being
done per fetch".

Two entry points:

* :func:`matmul_pass_kernel` builds that kernel shape (2U fetches, U MADs,
  an accumulator input, one output) for timing/boundedness analysis.
* :func:`simulated_matmul` actually multiplies two matrices through the
  CAL runtime, decomposing C = sum_k A[:,k] B[k,:] into element-wise
  outer-product passes of the same kernel — every FLOP flows through the
  IL interpreter, and the result is verified against NumPy in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.apps.advisor import AppAnalysis, analyze_kernel
from repro.arch.specs import GPUSpec
from repro.cal.context import Context
from repro.cal.device import Device
from repro.il.builder import ILBuilder
from repro.il.module import ILKernel
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.sim.config import SimConfig


def matmul_pass_kernel(
    unroll: int = 8,
    dtype: DataType = DataType.FLOAT,
    mode: ShaderMode = ShaderMode.PIXEL,
    name: str = "matmul_pass",
) -> ILKernel:
    """One unrolled inner-product pass: out = c_in + sum_i a_i * b_i."""
    if unroll < 1:
        raise ValueError("unroll must be at least 1")
    builder = ILBuilder(name, mode, dtype)
    c_in = builder.declare_input()
    a_inputs = [builder.declare_input() for _ in range(unroll)]
    b_inputs = [builder.declare_input() for _ in range(unroll)]
    out = builder.declare_output()

    acc = builder.sample(c_in)
    a_regs = [builder.sample(a) for a in a_inputs]
    b_regs = [builder.sample(b) for b in b_inputs]
    for a, b in zip(a_regs, b_regs):
        acc = builder.mad(a, b, acc)
    builder.store(out, acc)
    return builder.build(
        metadata={"generator": "matmul_pass", "unroll": unroll}
    )


def analyze_matmul(
    gpu: GPUSpec,
    unroll: int = 8,
    dtype: DataType = DataType.FLOAT,
    domain: tuple[int, int] = (1024, 1024),
    sim: SimConfig | None = None,
) -> AppAnalysis:
    """Measure the matmul pass kernel on a simulated chip."""
    kernel = matmul_pass_kernel(unroll=unroll, dtype=dtype)
    return analyze_kernel(kernel, gpu, domain, sim)


def simulated_matmul(
    a: np.ndarray,
    b: np.ndarray,
    gpu: GPUSpec,
    unroll: int = 8,
    sim: SimConfig | None = None,
) -> tuple[np.ndarray, float]:
    """Multiply two square float32 matrices through the CAL runtime.

    Decomposes the product into outer-product passes: each pass feeds the
    kernel ``unroll`` broadcast columns of A and rows of B plus the
    accumulated C, and reads back the new C.  Returns ``(C, kernel_seconds)``
    where the seconds accumulate the simulated kernel time of every pass
    (one iteration each — this is an application, not a micro-benchmark).
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError("simulated_matmul expects equal square matrices")
    n = a.shape[0]
    k_total = n
    if k_total % unroll:
        raise ValueError(f"matrix size {n} must be divisible by unroll {unroll}")

    device = Device(gpu)
    ctx = Context(device, sim=sim or SimConfig())
    kernel = matmul_pass_kernel(unroll=unroll)
    module = ctx.load_module(kernel)

    c_in = ctx.alloc_2d(n, n, DataType.FLOAT, MemorySpace.TEXTURE, name="c_in")
    a_res = [
        ctx.alloc_2d(n, n, DataType.FLOAT, MemorySpace.TEXTURE, name=f"a{i}")
        for i in range(unroll)
    ]
    b_res = [
        ctx.alloc_2d(n, n, DataType.FLOAT, MemorySpace.TEXTURE, name=f"b{i}")
        for i in range(unroll)
    ]
    out = ctx.alloc_2d(n, n, DataType.FLOAT, MemorySpace.COLOR_BUFFER, name="c_out")

    module.bind_input(0, c_in)
    for i in range(unroll):
        module.bind_input(1 + i, a_res[i])
        module.bind_input(1 + unroll + i, b_res[i])
    module.bind_output(0, out)

    c = np.zeros((n, n), dtype=np.float32)
    total_seconds = 0.0
    for k0 in range(0, k_total, unroll):
        c_in.upload(c)
        for i in range(unroll):
            k = k0 + i
            # outer-product operands broadcast over the domain
            a_res[i].upload(np.repeat(a[:, k][:, np.newaxis], n, axis=1))
            b_res[i].upload(np.repeat(b[k, :][np.newaxis, :], n, axis=0))
        event = ctx.run(module, domain=(n, n), iterations=1, execute=True)
        total_seconds += event.seconds
        c = out.download()[:, :, 0]
    return c, total_seconds
