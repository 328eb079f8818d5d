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

import heapq
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

    # Resource state is integer-indexed inside the loop: ~1e5 events per
    # launch each touch it four times, and ``Enum.__hash__`` is a
    # Python-level call that dominated the loop's profile when the state
    # lived in enum-keyed dicts.  The arithmetic and its order are
    # unchanged, so results are bit-identical.
    members = list(Resource)
    index_of = {r: i for i, r in enumerate(members)}
    busy_by_index = [0.0] * len(members)
    free_by_index = [0.0] * len(members)
    #: (resource index, occupancy, latency) per clause, resolved once.
    steps = [
        (index_of[c.resource], c.occupancy, c.latency) for c in clauses
    ]
    last = len(clauses) - 1
    completions: list[float] = []
    if record is not None:
        from repro.sim.trace import TraceEvent

    initial = min(resident, count)
    # heap entries: (ready_time, admission_order, clause_index).  Each
    # wavefront has exactly one entry, so keys are unique and the pop
    # order depends only on the heap's contents: replacing the popped
    # entry with its successor in one ``heapreplace`` pops in the same
    # order as a pop followed by a push.
    heap: list[tuple[float, int, int]] = [
        (0.0, index, 0) for index in range(initial)
    ]
    heapq.heapify(heap)
    admitted = initial
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    while heap:
        ready, order, clause_index = heap[0]
        r_index, occupancy, latency = steps[clause_index]
        free = free_by_index[r_index]
        start = ready if ready >= free else free
        end = start + occupancy
        free_by_index[r_index] = end
        busy_by_index[r_index] += occupancy
        next_ready = end + latency
        if record is not None:
            record.append(
                TraceEvent(
                    wavefront=order,
                    clause_index=clause_index,
                    resource=clauses[clause_index].resource,
                    ready=ready,
                    start=start,
                    end=end,
                    next_ready=next_ready,
                )
            )
        if clause_index < last:
            heapreplace(heap, (next_ready, order, clause_index + 1))
        else:
            completions.append(next_ready)
            if admitted < count:
                heapreplace(heap, (next_ready, admitted, 0))
                admitted += 1
            else:
                heappop(heap)

    completions.sort()
    busy = {r: busy_by_index[index_of[r]] for r in members}
    return completions[-1], busy, completions
