"""Launch and simulator configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.il.types import ShaderMode


#: The paper executes every kernel 5000 times "to obtain stable and
#: comparable timings" (§III); reported seconds are for all iterations.
PAPER_ITERATIONS = 5000

#: The naive compute-shader block shape used "unless otherwise stated" (§IV).
NAIVE_BLOCK = (64, 1)

#: The optimized two-dimensional block shape of Figures 8 and 17.
TILED_BLOCK = (4, 16)


@dataclass(frozen=True)
class LaunchConfig:
    """One kernel launch: domain, mode-specific decomposition, iterations."""

    domain: tuple[int, int] = (1024, 1024)
    mode: ShaderMode = ShaderMode.PIXEL
    #: compute-shader thread-block shape (ignored in pixel mode).
    block: tuple[int, int] = NAIVE_BLOCK
    iterations: int = PAPER_ITERATIONS

    def __post_init__(self) -> None:
        width, height = self.domain
        if width < 1 or height < 1:
            raise ValueError(f"invalid domain {self.domain}")
        bw, bh = self.block
        if bw < 1 or bh < 1:
            raise ValueError(f"invalid block {self.block}")
        if bw * bh != 64:
            raise ValueError(
                f"block {self.block} must contain exactly one 64-thread "
                "wavefront (the paper pads compute domains to 64 — §IV)"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be positive")

    @property
    def threads(self) -> int:
        return self.domain[0] * self.domain[1]


@dataclass(frozen=True)
class SimConfig:
    """Model coefficients and ablation switches.

    The defaults reproduce the paper; the booleans exist so the ablation
    benchmarks can switch individual mechanisms off (DESIGN.md §6).
    """

    # ---- mechanisms (ablation switches) ---------------------------------
    #: model the texture L1 (off = every fetch pays full DRAM traffic).
    cache_model: bool = True
    #: halve ALU throughput when only one wavefront is resident (§II-A
    #: odd/even slots).
    odd_even_slots: bool = True
    #: burst-combine color-buffer exports (off = pay per-byte bandwidth).
    burst_exports: bool = True
    #: limit resident wavefronts by GPR usage (off = hardware max always).
    gpr_limited_residency: bool = True

    # ---- calibration coefficients ---------------------------------------
    #: capacity-pressure slope of the texture-path bandwidth efficiency:
    #: eff = 1 / (1 + coeff * log2(pressure/threshold)) beyond the threshold.
    thrash_coeff: float = 0.10
    #: resident-footprint-to-capacity ratio below which the L1 absorbs the
    #: resident set without extra misses.
    pressure_threshold: float = 16.0
    #: Little's-law half-saturation point: with R resident wavefronts the
    #: memory system reaches R/(R + half) of its bandwidth — a handful of
    #: wavefronts cannot keep hundreds of cycles of memory pipeline full.
    little_r_half: float = 1.0
    #: wavefront-launch distance between 2-D tile neighbours in pixel mode
    #: (the rasterizer walks tiles in a locality-preserving order).
    tiled_reuse_distance: float = 2.0

    # ---- accuracy/performance trade-off ---------------------------------
    #: simulate at most this many wavefronts per SIMD exactly, then
    #: extrapolate at the measured steady-state rate (DESIGN.md §4).
    max_simulated_wavefronts: int = 192
    #: simulate every wavefront when the per-SIMD count is below this.
    exact_threshold: int = 256

    def __post_init__(self) -> None:
        if self.thrash_coeff < 0:
            raise ValueError("thrash_coeff cannot be negative")
        if self.tiled_reuse_distance < 1:
            raise ValueError("tiled_reuse_distance must be at least 1")
        if self.max_simulated_wavefronts < 8:
            raise ValueError("max_simulated_wavefronts too small to warm up")
