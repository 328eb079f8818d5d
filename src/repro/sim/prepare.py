"""Shared launch preparation: one place turns (program, gpu, launch, sim)
into the wavefront program plus its residency/decomposition numbers.

The timing engine (:mod:`repro.sim.engine`), the Gantt tracer
(:mod:`repro.sim.trace`) and the closed-form model
(:mod:`repro.analysis.model`) all prepare a launch here, so they accept
the same launches and cost identical clause programs for identical
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.il.types import ShaderMode
from repro.isa.program import ISAProgram
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.rasterizer import (
    access_pattern,
    total_wavefronts,
    wavefronts_per_simd,
)
from repro.sim.scheduler import resident_wavefronts
from repro.sim.wavefront import WavefrontProgram, build_wavefront_program


class SimulationError(ValueError):
    """Raised for launches the modeled hardware cannot execute."""


@dataclass(frozen=True)
class PreparedLaunch:
    """Everything the event model needs to execute one launch."""

    total_wavefronts: int
    wavefronts_per_simd: int
    resident_wavefronts: int
    wavefront_program: WavefrontProgram


def prepare_launch(
    program: ISAProgram,
    gpu: GPUSpec,
    launch: LaunchConfig,
    sim: SimConfig,
) -> PreparedLaunch:
    """Decompose the launch and cost the per-wavefront clause program.

    Raises :class:`SimulationError` for impossible combinations: compute
    shader mode on the RV670 (§IV: "The RV670 ... does not support compute
    shader mode") or a launch mode that does not match the program's.
    """
    if program.mode is not launch.mode:
        raise SimulationError(
            f"program compiled for {program.mode.value} shader mode cannot "
            f"launch in {launch.mode.value} mode"
        )
    if launch.mode is ShaderMode.COMPUTE and not gpu.supports_compute_shader:
        raise SimulationError(
            f"{gpu.chip} does not support compute shader mode (paper §IV)"
        )
    total = total_wavefronts(launch)
    on_simd = wavefronts_per_simd(launch, gpu.num_simds)
    resident = resident_wavefronts(program, gpu, on_simd, sim)
    wf_program = build_wavefront_program(
        program, gpu, access_pattern(launch, sim), resident, sim
    )
    return PreparedLaunch(
        total_wavefronts=total,
        wavefronts_per_simd=on_simd,
        resident_wavefronts=resident,
        wavefront_program=wf_program,
    )
