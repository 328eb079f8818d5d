"""Discrete-event model of one SIMD engine.

Resident wavefronts execute their clause programs concurrently, competing
for the SIMD's three resources (ALU pipeline, texture-fetch quartet,
export path).  Arbitration is FIFO by readiness, matching the hardware's
round-robin clause switching.  A completing wavefront immediately admits
the next queued one, so the resident count stays constant until the tail.

For the paper's launches a SIMD runs hundreds to thousands of identical
wavefronts; the model simulates a warm prefix exactly and extrapolates the
remainder at the measured steady-state rate (configurable, and exact for
small launches) — the estimator is deterministic and validated against
exact runs in the test suite.

Timing runs never record clause events; the Gantt tracer
(:func:`repro.sim.trace.trace_launch`) runs the same event loop with a
record list to get them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.sim.config import SimConfig
from repro.sim.counters import Resource
from repro.sim.wavefront import WavefrontProgram


@dataclass(frozen=True)
class SIMDResult:
    """Outcome of running ``total`` wavefronts through one SIMD engine."""

    makespan_cycles: float
    busy_cycles: dict[Resource, float]
    wavefronts_simulated: int
    wavefronts_total: int


def simulate_simd(
    program: WavefrontProgram,
    resident: int,
    total: int,
    sim: SimConfig | None = None,
) -> SIMDResult:
    """Run ``total`` wavefronts with at most ``resident`` concurrent."""
    sim = sim or SimConfig()
    if resident < 1:
        raise ValueError("at least one resident wavefront is required")
    if total < 1:
        raise ValueError("at least one wavefront must be launched")

    if total <= sim.exact_threshold:
        window = total
    else:
        window = min(total, max(sim.max_simulated_wavefronts, 4 * resident))

    makespan, busy, completions = _run_event_loop(program, resident, window)

    if window == total:
        return SIMDResult(makespan, busy, window, total)

    # Steady-state extrapolation.  Completions arrive in bursts with a
    # period of one resident set, so the rate is measured over a whole
    # number of periods ending at the final completion — otherwise the
    # estimate is biased by up to one burst.
    available = len(completions) - 1
    periods = (available // 2) // resident
    window_size = periods * resident
    if window_size >= 1:
        span = completions[-1] - completions[-1 - window_size]
        per_wavefront = span / window_size
    else:
        span = completions[-1] - completions[available // 2]
        completed = available - available // 2
        per_wavefront = (
            span / completed if completed > 0 and span > 0
            else completions[-1] / len(completions)
        )

    # Every wavefront is identical, so the busiest resource's occupancy is
    # a hard floor on steady-state spacing — it corrects any residual
    # burst-phase bias in the measured rate.
    throughput_floor = max(program.occupancy_by_resource.values())
    per_wavefront = max(per_wavefront, throughput_floor)
    remaining = total - window
    makespan_total = makespan + remaining * per_wavefront
    scale = total / window
    busy_total = {r: c * scale for r, c in busy.items()}
    return SIMDResult(makespan_total, busy_total, window, total)


#: the resources in the loop's index order, and each one's index.
_RESOURCES = tuple(Resource)
_INDEX = {resource: index for index, resource in enumerate(_RESOURCES)}


def _run_event_loop(
    program: WavefrontProgram,
    resident: int,
    count: int,
    record: list | None = None,
) -> tuple[float, dict[Resource, float], list[float]]:
    """Exact event-driven execution of ``count`` wavefronts.

    When ``record`` is a list, every clause execution is appended to it as
    a :class:`repro.sim.trace.TraceEvent` (imported lazily to keep the hot
    path dependency-free); :func:`repro.sim.trace.trace_launch` is the one
    caller that passes it.
    """
    clauses = program.clauses
    if not clauses:
        raise ValueError("wavefront program has no clauses")

    # ~1e6 events per sweep: the state is flat lists indexed by int (per
    # clause and per resource), so no event hashes an enum.
    resource_of = [_INDEX[c.resource] for c in clauses]
    occupancy_of = [c.occupancy for c in clauses]
    latency_of = [c.latency for c in clauses]
    busy = [0.0] * len(_RESOURCES)
    free = [0.0] * len(_RESOURCES)
    last = len(clauses) - 1
    completions: list[float] = []
    complete = completions.append
    if record is not None:
        from repro.sim.trace import TraceEvent

    # One (ready_time, admission_order) entry per resident wavefront,
    # kept sorted; ``cursor`` holds each one's next clause.  Keys are
    # unique, so the front is the entry a binary heap would pop, and every
    # float is added in the reference order (DESIGN.md §4).
    initial = min(resident, count)
    queue = [(0.0, order) for order in range(initial)]
    cursor = [0] * count
    admitted = initial
    pop = queue.pop
    insort = bisect.insort

    while queue:
        ready, order = pop(0)
        index = cursor[order]
        r = resource_of[index]
        start = free[r]
        if ready > start:
            start = ready
        occupancy = occupancy_of[index]
        end = start + occupancy
        free[r] = end
        busy[r] += occupancy
        next_ready = end + latency_of[index]
        if record is not None:
            record.append(
                TraceEvent(
                    wavefront=order,
                    clause_index=index,
                    resource=_RESOURCES[r],
                    ready=ready,
                    start=start,
                    end=end,
                    next_ready=next_ready,
                )
            )
        if index < last:
            cursor[order] = index + 1
            insort(queue, (next_ready, order))
        else:
            complete(next_ready)
            if admitted < count:
                insort(queue, (next_ready, admitted))
                admitted += 1

    completions.sort()
    return completions[-1], dict(zip(_RESOURCES, busy)), completions
