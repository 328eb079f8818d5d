"""Parameter tuning on measured launches.

The paper positions the suite as the measurement layer under automatic
tuning: "The performance models described in this paper can be used to
determine the type of optimizations and help the selection of
optimization parameters."  This module closes that loop for the three
knobs the paper's results expose:

* :func:`tune_block_size` — the compute-mode decomposition (§IV-A:
  "one block size might not be best for all GPUs");
* :func:`tune_register_pressure` — the Figure 6 ``step`` placement
  (§IV-E: "a good indication of the sweet spot for balancing register
  pressure and cache hit rate");
* :func:`balance_alu_fetch` — the smallest ALU:Fetch ratio that makes a
  kernel ALU-bound on a given chip (the dynamic "good ratio" that the
  static SKA band cannot provide).

Every search point is a :class:`~repro.jobs.units.WorkUnit` run by a
:class:`~repro.jobs.JobEngine`, so it is measured exactly as a figure
point is: built from its kernel recipe, compiled, timed through CAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.specs import GPUSpec
from repro.il.types import ShaderMode
from repro.kernels import KernelParams, KernelRecipe
from repro.sim.config import PAPER_ITERATIONS, SimConfig
from repro.sim.counters import Bound

if TYPE_CHECKING:
    from repro.jobs.scheduler import JobEngine

#: block shapes holding one 64-thread wavefront, widest to tallest.
CANDIDATE_BLOCKS: tuple[tuple[int, int], ...] = (
    (64, 1),
    (32, 2),
    (16, 4),
    (8, 8),
    (4, 16),
    (2, 32),
)


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration."""

    setting: object
    seconds: float
    bound: Bound


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a parameter search."""

    best: Trial
    trials: tuple[Trial, ...]

    @property
    def improvement(self) -> float:
        """Worst-over-best time ratio across the search space."""
        worst = max(t.seconds for t in self.trials)
        return worst / self.best.seconds

    def summary(self) -> str:
        return (
            f"best {self.best.setting!r}: {self.best.seconds:.3f}s "
            f"({self.best.bound.value}-bound), {self.improvement:.2f}x over "
            f"the worst of {len(self.trials)} candidates"
        )


def _measure(
    points, gpu: GPUSpec, domain, sim, engine: "JobEngine | None" = None
) -> list[dict]:
    """Run each ``(recipe, block)`` search point as one work unit."""
    from repro.jobs.scheduler import JobEngine
    from repro.jobs.units import WorkUnit

    units = [
        WorkUnit(
            figure=f"tune-{gpu.chip}",
            series=recipe.generator,
            value=index,
            recipe=recipe,
            gpu=gpu,
            domain=domain,
            block=block,
            iterations=PAPER_ITERATIONS,
            sim=sim if sim is not None else SimConfig(),
        )
        for index, (recipe, block) in enumerate(points)
    ]
    return (engine if engine is not None else JobEngine()).run(units)


def _result(settings, records: list[dict]) -> TuningResult:
    """Pair each search setting with its unit's record; fastest wins."""
    trials = tuple(
        Trial(setting, record["seconds"], Bound(record["bound"]))
        for setting, record in zip(settings, records)
    )
    return TuningResult(
        best=min(trials, key=lambda t: t.seconds), trials=trials
    )


def tune_block_size(
    recipe: KernelRecipe,
    gpu: GPUSpec,
    domain: tuple[int, int] = (1024, 1024),
    candidates=CANDIDATE_BLOCKS,
    sim: SimConfig | None = None,
) -> TuningResult:
    """Find the fastest compute-mode block decomposition for a kernel."""
    if recipe.params.mode is not ShaderMode.COMPUTE:
        raise ValueError("block-size tuning applies to compute-mode kernels")
    points = [(recipe, block) for block in candidates]
    return _result(candidates, _measure(points, gpu, domain, sim))


def tune_register_pressure(
    gpu: GPUSpec,
    params: KernelParams,
    domain: tuple[int, int] = (512, 512),
    steps=range(0, 8),
    block: tuple[int, int] = (64, 1),
    sim: SimConfig | None = None,
) -> TuningResult:
    """Sweep the Figure 6 ``step`` knob and return the sweet spot.

    The trial setting is ``(step, gpr_count)`` so callers can see both the
    knob and the register footprint it produced.
    """
    steps = tuple(steps)
    points = [
        (KernelRecipe("register_usage", params.with_(step=step)), block)
        for step in steps
    ]
    records = _measure(points, gpu, domain, sim)
    settings = [(step, record["gprs"]) for step, record in zip(steps, records)]
    return _result(settings, records)


def balance_alu_fetch(
    gpu: GPUSpec,
    params: KernelParams,
    domain: tuple[int, int] = (1024, 1024),
    block: tuple[int, int] = (64, 1),
    tolerance: float = 0.25,
    max_ratio: float = 32.0,
    sim: SimConfig | None = None,
) -> float:
    """The smallest SKA ALU:Fetch ratio at which the kernel is ALU-bound.

    Binary search over the ratio; this is the *dynamic* balance point the
    paper measures with Figure 7 — it depends on data type, shader mode,
    block shape and chip, unlike the SKA's static 0.98-1.09 band.  Each
    probe is one work unit through the same engine.
    """
    from repro.jobs.scheduler import JobEngine

    engine = JobEngine()

    def bound_at(ratio: float) -> Bound:
        recipe = KernelRecipe("generic", params.with_(alu_fetch_ratio=ratio))
        record = _measure([(recipe, block)], gpu, domain, sim, engine)[0]
        return Bound(record["bound"])

    low, high = tolerance, max_ratio
    if bound_at(high) is not Bound.ALU:
        raise ValueError(
            f"kernel never becomes ALU-bound up to ratio {max_ratio}"
        )
    if bound_at(low) is Bound.ALU:
        return low
    while high - low > tolerance:
        mid = (low + high) / 2
        if bound_at(mid) is Bound.ALU:
            high = mid
        else:
            low = mid
    return high
