"""Binomial option pricing — the paper's ALU-bound example (§IV-A).

"The Binomial Option Pricing sample has several kernels that are ALU
bound.  Intuitively, ALU boundedness is desired; however, it's best to
attempt to fully utilize all resources if possible, so these ALU bound
kernels can benefit from added fetches and/or outputs."

The StreamSDK kernel walks the binomial lattice with a long unrolled
arithmetic loop per option and only a handful of fetches — a very high
ALU:Fetch ratio.  :func:`binomial_kernel` reproduces that instruction mix
(four parameter fetches, ~5 dependent ALU ops per lattice step including a
transcendental, one output); :func:`binomial_price_reference` is a NumPy
reference pricer used by the example and tests to show the numbers such a
kernel would produce.
"""

from __future__ import annotations

import numpy as np

from repro.apps.advisor import AppAnalysis, analyze_kernel
from repro.arch.specs import GPUSpec
from repro.il.builder import ILBuilder
from repro.il.module import ILKernel
from repro.il.opcodes import ILOp
from repro.il.types import DataType, ShaderMode
from repro.sim.config import SimConfig


def binomial_kernel(
    steps: int = 16,
    dtype: DataType = DataType.FLOAT,
    mode: ShaderMode = ShaderMode.PIXEL,
    name: str = "binomial",
) -> ILKernel:
    """Lattice-walk kernel: 4 inputs, ~5 dependent ALU ops per step.

    Each unrolled step mirrors one backward-induction level: two MULs, an
    ADD, a MAX (early-exercise test) and an EXP-discount on the running
    value — fully dependent, so no VLIW packing, exactly like the
    micro-benchmark chains.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    builder = ILBuilder(name, mode, dtype)
    spot = builder.declare_input()
    strike = builder.declare_input()
    up = builder.declare_input()
    disc = builder.declare_input()
    out = builder.declare_output()

    s = builder.sample(spot)
    k = builder.sample(strike)
    u = builder.sample(up)
    d = builder.sample(disc)

    value = builder.sub(s, k)
    for _ in range(steps):
        grown = builder.mul(value, u)
        blended = builder.mul(grown, d)
        shifted = builder.add(blended, k)
        exercised = builder.alu(ILOp.MAX, shifted, value)
        value = builder.alu(ILOp.EXP, exercised)
    builder.store(out, value)
    return builder.build(
        metadata={"generator": "binomial", "steps": steps}
    )


def analyze_binomial(
    gpu: GPUSpec,
    steps: int = 16,
    domain: tuple[int, int] = (1024, 1024),
    sim: SimConfig | None = None,
) -> AppAnalysis:
    """Measure the binomial kernel on a simulated chip."""
    return analyze_kernel(binomial_kernel(steps=steps), gpu, domain, sim)


def binomial_price_reference(
    spot: float,
    strike: float,
    rate: float,
    volatility: float,
    expiry: float,
    steps: int = 256,
    call: bool = True,
) -> float:
    """Cox-Ross-Rubinstein American option pricer (NumPy reference).

    This is the computation the StreamSDK sample performs per thread; the
    quickstart example prices a grid of options with it while the timing
    side runs :func:`binomial_kernel` on the simulated GPU.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    dt = expiry / steps
    up = float(np.exp(volatility * np.sqrt(dt)))
    down = 1.0 / up
    growth = float(np.exp(rate * dt))
    p = (growth - down) / (up - down)
    if not 0.0 < p < 1.0:
        raise ValueError("arbitrage-free probability out of range; check inputs")
    discount = 1.0 / growth

    # terminal payoffs
    exponents = np.arange(steps, -1, -1, dtype=np.float64)
    prices = spot * up**exponents * down ** (steps - exponents)
    sign = 1.0 if call else -1.0
    values = np.maximum(sign * (prices - strike), 0.0)

    for level in range(steps, 0, -1):
        values = discount * (p * values[:-1] + (1.0 - p) * values[1:])
        prices = prices[:-1] * down
        exercise = np.maximum(sign * (prices - strike), 0.0)
        values = np.maximum(values, exercise)
    return float(values[0])
