"""Whole-GPU launch simulation: ISA program + launch config -> seconds."""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.arch.specs import GPUSpec
from repro.isa.program import ISAProgram
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.counters import Bound, Counters, Resource
from repro.sim.prepare import SimulationError, prepare_launch
from repro.sim.simd import simulate_simd

__all__ = ["LaunchResult", "SimulationError", "simulate_launch"]


@dataclass(frozen=True)
class LaunchResult:
    """Timing and counters of one simulated kernel launch.

    ``seconds`` covers all ``iterations`` repetitions — the quantity the
    paper plots.  ``cycles`` is the makespan of a single iteration on the
    busiest SIMD engine.
    """

    program: ISAProgram
    gpu: GPUSpec
    launch: LaunchConfig
    cycles: float
    seconds: float
    counters: Counters

    @property
    def bottleneck(self) -> Bound:
        return self.counters.bottleneck()

    @property
    def seconds_per_iteration(self) -> float:
        return self.seconds / self.launch.iterations

    def summary(self) -> str:
        """One line with total time, per-iteration time, and the bound.

        The bottleneck label leads, so latency-bound launches (where no
        resource saturates and the utilization triple alone is ambiguous)
        are still labeled explicitly.
        """
        return (
            f"{self.program.kernel.name} on {self.gpu.chip} "
            f"[{self.launch.mode.value}]: {self.seconds:.3f}s "
            f"({self.seconds_per_iteration * 1e3:.4f}ms/iter x "
            f"{self.launch.iterations}), bound={self.bottleneck.value} "
            f"({self.counters.summary()})"
        )


def _record_metrics(result: "LaunchResult", resident: int) -> None:
    """Fold one launch into the run-level metrics registry."""
    registry = telemetry.metrics()
    counters = result.counters
    registry.counter("sim.launches").inc()
    clauses = len(result.program.clauses)  # one cost per ISA clause
    registry.counter("sim.events").inc(counters.wavefronts_simulated * clauses)
    registry.counter("sim.bottleneck", bound=counters.bottleneck().value).inc()
    registry.counter("sim.wavefronts_total").inc(counters.wavefronts_total)
    registry.histogram("sim.makespan_cycles").observe(result.cycles)
    registry.histogram("sim.seconds_per_iteration").observe(
        result.seconds_per_iteration
    )
    registry.histogram("sim.resident_wavefronts").observe(resident)
    for resource in Resource:
        registry.histogram(
            "sim.utilization", resource=resource.value
        ).observe(counters.utilization(resource))
    if counters.texture_hit_rate is not None:
        registry.histogram("sim.texture_hit_rate").observe(
            counters.texture_hit_rate
        )


def simulate_launch(
    program: ISAProgram,
    gpu: GPUSpec,
    launch: LaunchConfig | None = None,
    sim: SimConfig | None = None,
) -> LaunchResult:
    """Simulate running ``program`` on ``gpu`` under ``launch``.

    Raises :class:`SimulationError` for launches the hardware cannot
    execute (see :func:`~repro.sim.prepare.prepare_launch`).  When
    telemetry is enabled, the launch is wrapped in a ``simulate`` span and
    folded into the metrics registry.
    """
    launch = launch or LaunchConfig()
    sim = sim or SimConfig()

    with telemetry.span(
        "simulate",
        kernel=program.kernel.name,
        gpu=gpu.chip,
        mode=launch.mode.value,
        domain=f"{launch.domain[0]}x{launch.domain[1]}",
    ) as span:
        prep = prepare_launch(program, gpu, launch, sim)
        result = simulate_simd(
            prep.wavefront_program,
            prep.resident_wavefronts,
            prep.wavefronts_per_simd,
            sim,
        )

        seconds = (
            result.makespan_cycles / gpu.core_clock_hz * launch.iterations
        )
        counters = Counters(
            makespan_cycles=result.makespan_cycles,
            busy_cycles=result.busy_cycles,
            wavefronts_simulated=result.wavefronts_simulated,
            wavefronts_total=prep.total_wavefronts,
            resident_wavefronts=prep.resident_wavefronts,
            texture_hit_rate=prep.wavefront_program.texture_hit_rate,
            texture_overfetch=prep.wavefront_program.texture_overfetch,
        )
        launch_result = LaunchResult(
            program=program,
            gpu=gpu,
            launch=launch,
            cycles=result.makespan_cycles,
            seconds=seconds,
            counters=counters,
        )
        if span:
            span.set(
                seconds=round(seconds, 6),
                cycles=round(result.makespan_cycles, 1),
                bound=counters.bottleneck().value,
                resident_wavefronts=prep.resident_wavefronts,
            )
            _record_metrics(launch_result, prep.resident_wavefronts)
    return launch_result
