"""Clause-level execution tracing and ASCII Gantt rendering.

A trace makes the §II-A latency-hiding story visible: each row of the
Gantt shows one SIMD resource (ALU pipeline, texture quartet, export
path); time runs left to right; digits mark which wavefront held the
resource.  The gaps on the ALU row shrink as the resident-wavefront count
grows — exactly the effect the register-usage benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.isa.program import ISAProgram
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.counters import Resource
from repro.sim.prepare import prepare_launch


@dataclass(frozen=True)
class TraceEvent:
    """One clause execution on one resource."""

    wavefront: int
    clause_index: int
    resource: Resource
    ready: float  #: when the wavefront wanted the resource
    start: float  #: when it actually got it
    end: float  #: when it released it
    next_ready: float  #: when the wavefront can proceed (end + latency)

    @property
    def queue_delay(self) -> float:
        """Cycles spent waiting for the resource."""
        return self.start - self.ready

    @property
    def latency(self) -> float:
        return self.next_ready - self.end


def trace_launch(
    program: ISAProgram,
    gpu: GPUSpec,
    launch: LaunchConfig | None = None,
    sim: SimConfig | None = None,
    max_wavefronts: int | None = None,
) -> list[TraceEvent]:
    """Trace one SIMD engine executing the launch's first wavefronts.

    ``max_wavefronts`` caps the traced prefix (default: two resident
    sets) so the Gantt stays readable.  This is the one producer of
    clause events: the Gantt renderer draws the list, and per-resource
    busy time is a sum over it.  Raises
    :class:`~repro.sim.prepare.SimulationError` for the launches
    :func:`~repro.sim.engine.simulate_launch` rejects.
    """
    from repro.sim.simd import _run_event_loop

    launch = launch or LaunchConfig()
    sim = sim or SimConfig()
    prep = prepare_launch(program, gpu, launch, sim)
    residents = prep.resident_wavefronts
    count = min(
        prep.wavefronts_per_simd, max_wavefronts or 2 * residents
    )
    events: list[TraceEvent] = []
    _run_event_loop(prep.wavefront_program, residents, count, record=events)
    return events


def render_gantt(events: list[TraceEvent], width: int = 100) -> str:
    """Render a trace as an ASCII Gantt chart, one row per resource.

    Each busy span is drawn with the owning wavefront's index modulo 10;
    idle time is ``.`` — idle ALU columns are exactly the stalls that more
    resident wavefronts would fill.
    """
    if not events:
        raise ValueError("empty trace")
    horizon = max(e.end for e in events)
    scale = width / horizon

    rows: dict[Resource, list[str]] = {
        resource: ["."] * width for resource in Resource
    }
    for event in events:
        row = rows[event.resource]
        start = int(event.start * scale)
        end = max(start + 1, int(event.end * scale))
        marker = str(event.wavefront % 10)
        for col in range(start, min(end, width)):
            row[col] = marker

    label_width = max(len(r.value) for r in Resource) + 1
    lines = [
        f"{'cycles':>{label_width}} 0{'-' * (width - len(str(int(horizon))) - 1)}{int(horizon)}"
    ]
    for resource in Resource:
        lines.append(f"{resource.value:>{label_width}} " + "".join(rows[resource]))
    busy = {
        resource: sum(e.end - e.start for e in events if e.resource is resource)
        for resource in Resource
    }
    lines.append(
        "  util: "
        + "  ".join(
            f"{resource.value}={busy[resource] / horizon:.0%}"
            for resource in Resource
        )
    )
    return "\n".join(lines)
