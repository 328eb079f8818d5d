"""Boundedness-driven optimization advice.

§IV of the paper reads each measured bottleneck as a direction: a
fetch-bound kernel wants more arithmetic per fetch or a better cache hit
rate; an ALU-bound kernel has headroom for free fetches/outputs (kernel
merging); a write-bound kernel can absorb ALU and fetch work; a
latency-bound kernel needs more resident wavefronts (fewer GPRs).  This
module encodes those rules so applications can ask for them directly;
:func:`analyze_kernel` is the measurement every StreamSDK stand-in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.il.module import ILKernel
from repro.il.types import ShaderMode
from repro.sim.config import SimConfig
from repro.sim.counters import Bound
from repro.sim.engine import LaunchResult
from repro.ska import SKAReport, analyze


@dataclass(frozen=True)
class AppAnalysis:
    """Boundedness + static report of an application kernel on one GPU."""

    gpu: str
    seconds: float
    bound: Bound
    ska: SKAReport


def analyze_kernel(
    kernel: ILKernel,
    gpu: GPUSpec,
    domain: tuple[int, int] = (1024, 1024),
    sim: SimConfig | None = None,
) -> AppAnalysis:
    """Time ``kernel`` through CAL on a chip and add its SKA report."""
    event = time_kernel(Device(gpu), kernel, domain=domain, sim=sim)
    return AppAnalysis(
        gpu=gpu.chip,
        seconds=event.seconds,
        bound=event.bottleneck,
        ska=analyze(event.result.program, gpu),
    )


@dataclass(frozen=True)
class Suggestion:
    """One actionable optimization direction."""

    action: str
    rationale: str

    def __str__(self) -> str:
        return f"{self.action} — {self.rationale}"


def advise(result: LaunchResult) -> list[Suggestion]:
    """Optimization directions for a measured launch, per the paper's §IV."""
    bound = result.bottleneck
    suggestions: list[Suggestion] = []

    if bound is Bound.FETCH:
        suggestions.append(
            Suggestion(
                "increase ALU operations per fetch",
                "fetch-bound kernels leave ALU cycles idle; more arithmetic "
                "per fetched element moves the bound toward ALU (§IV-B)",
            )
        )
        suggestions.append(
            Suggestion(
                "increase outputs per fetch",
                "amortizes each fetch over more useful results (§IV-B)",
            )
        )
        suggestions.append(
            Suggestion(
                "decrease GPR usage",
                "more simultaneous wavefronts hide more fetch latency "
                "(§IV-B, §IV-E)",
            )
        )
        if (
            result.launch.mode is ShaderMode.COMPUTE
            and result.launch.block[1] == 1
        ):
            suggestions.append(
                Suggestion(
                    "use a two-dimensional block size (e.g. 4x16)",
                    "the texture cache is organized for 2-D access; a 64x1 "
                    "walk uses only half of it (§IV-A)",
                )
            )
        hit_rate = result.counters.texture_hit_rate
        if hit_rate is not None and hit_rate < 0.5:
            suggestions.append(
                Suggestion(
                    "improve cache locality (elements per block, fewer "
                    "simultaneous wavefronts)",
                    f"texture hit rate is only {hit_rate:.0%} (§IV-B)",
                )
            )
    elif bound is Bound.ALU:
        suggestions.append(
            Suggestion(
                "add low-arithmetic-intensity fetches or outputs for free",
                "the fetch and export units idle while the ALU is "
                "saturated; extra data movement costs nothing (§IV-A)",
            )
        )
        suggestions.append(
            Suggestion(
                "merge with a fetch-bound kernel",
                "kernel merging balances the mixed workload across all "
                "three units (§IV-A, §V)",
            )
        )
    elif bound is Bound.WRITE:
        suggestions.append(
            Suggestion(
                "add ALU instructions for free up to the write bound",
                "there is room for additional arithmetic with no "
                "performance decrease until the bound flips (§IV-C)",
            )
        )
        suggestions.append(
            Suggestion(
                "add fetches for free up to the write bound",
                "the fetch units are idle while writes drain (§IV-C)",
            )
        )
    elif bound is Bound.LATENCY:
        suggestions.append(
            Suggestion(
                "reduce GPR usage to raise wavefront residency",
                f"only {result.counters.resident_wavefronts} wavefronts are "
                "resident; stalls dominate every resource (§IV-E)",
            )
        )
        suggestions.append(
            Suggestion(
                "sample inputs just before use (space/step layout)",
                "late sampling shortens live ranges and frees registers "
                "without changing the computation (§III-E)",
            )
        )

    resident = result.counters.resident_wavefronts
    if bound is not Bound.LATENCY and resident >= 16:
        hit_rate = result.counters.texture_hit_rate
        if hit_rate is not None and hit_rate < 0.75:
            suggestions.append(
                Suggestion(
                    "consider *adding* dummy registers to reduce residency",
                    "AMD's SGEMM uses dummy registers to avoid cache "
                    "thrashing from too many simultaneous wavefronts "
                    "(§IV-E)",
                )
            )
    return suggestions
