"""Static analysis of compiled kernels (the SKA-equivalent numbers)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.isa.program import ISAProgram
from repro.isa.stats import ISAStats, collect_stats
from repro.sim.counters import Bound

#: SKA's published "good ratio" band (§III-A).
GOOD_RATIO_LOW = 0.98
GOOD_RATIO_HIGH = 1.09


@dataclass(frozen=True)
class SKAReport:
    """Static analysis results for one compiled kernel."""

    kernel_name: str
    stats: ISAStats
    #: the normalized ALU:Fetch ratio (1.0 == 4 ALU ops : 1 fetch).
    alu_fetch_ratio: float
    #: wavefronts schedulable per SIMD given the GPR count (None without a
    #: target GPU).
    max_wavefronts: int | None
    #: the static bottleneck prediction.
    predicted_bound: Bound

    @property
    def in_good_band(self) -> bool:
        """Does the ratio fall in SKA's 0.98-1.09 "good" band?"""
        return GOOD_RATIO_LOW <= self.alu_fetch_ratio <= GOOD_RATIO_HIGH


def analyze(program: ISAProgram, gpu: GPUSpec | None = None) -> SKAReport:
    """Statically analyze a compiled kernel.

    The bottleneck prediction is the naive static one the paper critiques:
    ratio below the good band -> fetch bound; above -> ALU bound; a store
    count rivaling the fetch count -> write bound.  The suite's dynamic
    measurements show where this static picture breaks down.
    """
    stats = collect_stats(program)
    ratio = stats.reported_alu_fetch_ratio

    if stats.store_count >= max(2, stats.fetch_count):
        predicted = Bound.WRITE
    elif ratio > GOOD_RATIO_HIGH:
        predicted = Bound.ALU
    else:
        predicted = Bound.FETCH

    max_wavefronts = (
        gpu.max_wavefronts_for_gprs(stats.gpr_count) if gpu is not None else None
    )
    return SKAReport(
        kernel_name=program.kernel.name,
        stats=stats,
        alu_fetch_ratio=ratio,
        max_wavefronts=max_wavefronts,
        predicted_bound=predicted,
    )
