"""Per-wavefront clause cost program.

Translates a compiled :class:`~repro.isa.program.ISAProgram` plus the
launch context into the sequence of (resource, occupancy, latency) triples
the SIMD event model executes.  A wavefront runs its clauses strictly in
order — the next clause starts only after the previous clause's data has
arrived — so *all* latency hiding comes from other resident wavefronts
using the idle resources, exactly the switching behaviour of §II-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.il.types import MemorySpace
from repro.isa.clauses import ALUClause, ExportClause, TEXClause
from repro.isa.program import ISAProgram
from repro.sim.config import SimConfig
from repro.sim.counters import Resource
from repro.sim.memory import (
    MemoryPaths,
    burst_export_cost,
    global_read_cost,
    global_write_cost,
)
from repro.sim.rasterizer import AccessPattern
from repro.sim.texunit import TextureFetchCost, texture_cost


@dataclass(frozen=True)
class ClauseCost:
    """One clause's timing: hold ``resource`` for ``occupancy`` cycles, then
    the wavefront becomes ready again ``latency`` cycles later."""

    resource: Resource
    occupancy: float
    latency: float

    def __post_init__(self) -> None:
        if self.occupancy < 0 or self.latency < 0:
            raise ValueError("negative clause cost")


@dataclass(frozen=True)
class WavefrontProgram:
    """The clause-cost sequence plus model diagnostics."""

    clauses: tuple[ClauseCost, ...]
    texture_hit_rate: float | None
    texture_overfetch: float | None

    @property
    def occupancy_by_resource(self) -> dict[Resource, float]:
        totals: dict[Resource, float] = {r: 0.0 for r in Resource}
        for clause in self.clauses:
            totals[clause.resource] += clause.occupancy
        return totals


def build_wavefront_program(
    program: ISAProgram,
    gpu: GPUSpec,
    pattern: AccessPattern,
    resident_wavefronts: int,
    sim: SimConfig,
    paths: MemoryPaths | None = None,
) -> WavefrontProgram:
    """Cost every clause of ``program`` for one wavefront; each cost per
    fetch or store is computed once, when a clause first needs it."""
    paths = paths or MemoryPaths.for_gpu(gpu)
    dtype = program.dtype
    num_inputs = max(1, program.kernel.num_inputs)
    texture, color = MemorySpace.TEXTURE, MemorySpace.COLOR_BUFFER

    tex_model: TextureFetchCost | None = None
    read: float | None = None
    store_costs: dict[bool, float] = {}
    costs: list[ClauseCost] = []

    alu_scale = 1.0
    if sim.odd_even_slots and resident_wavefronts < 2:
        # A single resident wavefront occupies only one of the two thread
        # processor slots: "If there is only one wavefront only half the
        # thread processor is used" (§II-A).
        alu_scale = 2.0

    for clause in program.clauses:
        if isinstance(clause, TEXClause):
            if clause.space is texture:
                if tex_model is None:
                    tex_model = texture_cost(
                        gpu,
                        dtype,
                        pattern,
                        num_inputs,
                        resident_wavefronts,
                        paths,
                        sim,
                    )
                per_fetch = tex_model.occupancy_cycles
                latency = tex_model.latency_cycles
            else:
                if read is None:
                    read = global_read_cost(
                        gpu, dtype, paths, resident_wavefronts, sim
                    )
                per_fetch = read
                latency = paths.global_latency
            costs.append(
                ClauseCost(
                    resource=Resource.TEX,
                    occupancy=per_fetch * clause.count,
                    latency=latency,
                )
            )
        elif isinstance(clause, ALUClause):
            costs.append(
                ClauseCost(
                    resource=Resource.ALU,
                    occupancy=(
                        clause.count
                        * gpu.cycles_per_alu_instruction
                        * alu_scale
                    ),
                    latency=0.0,
                )
            )
        elif isinstance(clause, ExportClause):
            total = 0.0
            for store in clause.stores:
                burst = store.space is color
                if burst not in store_costs:
                    cost = burst_export_cost if burst else global_write_cost
                    store_costs[burst] = cost(
                        gpu, dtype, paths, resident_wavefronts, sim
                    )
                total += store_costs[burst]
            costs.append(
                ClauseCost(
                    resource=Resource.EXPORT,
                    occupancy=total,
                    latency=paths.export_latency,
                )
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown clause {type(clause).__name__}")

    return WavefrontProgram(
        clauses=tuple(costs),
        texture_hit_rate=(tex_model.model.hit_rate if tex_model else None),
        texture_overfetch=(tex_model.model.overfetch if tex_model else None),
    )
