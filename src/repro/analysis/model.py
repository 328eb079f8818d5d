"""Closed-form performance prediction.

The event simulation in :mod:`repro.sim.simd` resolves resource contention
exactly; this module provides the paper-style *model*: steady-state kernel
time is the busiest of the three per-wavefront resource occupancies, or
the serial clause span divided by the resident count when too few
wavefronts hide the latencies.  The prediction matches the event
simulation closely in both regimes (validated by tests); it reads the
prepared launch only and runs no event loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.isa.program import ISAProgram
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.counters import RESOURCE_TO_BOUND, Bound, Resource
from repro.sim.prepare import prepare_launch


@dataclass(frozen=True)
class PredictedTime:
    """Analytic prediction for one launch."""

    seconds: float
    cycles_per_wavefront: float
    bound: Bound
    resident_wavefronts: int
    #: per-wavefront occupancy of each resource, in cycles.
    occupancies: dict[Resource, float]
    #: serial span of one wavefront (occupancy + latencies), in cycles.
    serial_span: float


def predict_launch_seconds(
    program: ISAProgram,
    gpu: GPUSpec,
    launch: LaunchConfig | None = None,
    sim: SimConfig | None = None,
) -> PredictedTime:
    """Predict kernel time without event simulation.

    Steady-state throughput per wavefront is
    ``max(max_resource_occupancy, serial_span / residents)``: a saturated
    resource bounds throughput; otherwise each wavefront's own serial
    chain of clauses and latencies does, divided by how many run at once.
    Raises :class:`~repro.sim.prepare.SimulationError` for the launches
    :func:`~repro.sim.engine.simulate_launch` rejects.
    """
    launch = launch or LaunchConfig()
    prep = prepare_launch(program, gpu, launch, sim or SimConfig())
    on_simd = prep.wavefronts_per_simd
    residents = prep.resident_wavefronts
    wf_program = prep.wavefront_program

    occupancies = wf_program.occupancy_by_resource
    serial_span = sum(c.occupancy + c.latency for c in wf_program.clauses)

    busiest = max(occupancies, key=lambda r: occupancies[r])
    throughput_bound = occupancies[busiest]
    latency_bound = serial_span / residents

    if throughput_bound >= latency_bound:
        cycles_per_wavefront = throughput_bound
        bound = RESOURCE_TO_BOUND[busiest]
    else:
        cycles_per_wavefront = latency_bound
        bound = Bound.LATENCY

    total_cycles = cycles_per_wavefront * on_simd
    seconds = total_cycles / gpu.core_clock_hz * launch.iterations
    return PredictedTime(
        seconds=seconds,
        cycles_per_wavefront=cycles_per_wavefront,
        bound=bound,
        resident_wavefronts=residents,
        occupancies=occupancies,
        serial_span=serial_span,
    )
