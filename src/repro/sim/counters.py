"""Performance counters and bottleneck classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Resource(enum.Enum):
    """The three per-SIMD resources that can bound a kernel (§II-A)."""

    ALU = "alu"
    TEX = "tex"
    EXPORT = "export"


class Bound(enum.Enum):
    """What limits a kernel — the paper's central diagnostic concept."""

    ALU = "alu"
    FETCH = "fetch"
    WRITE = "write"
    LATENCY = "latency"  #: no resource saturated; stalls dominate


#: the bound a saturated resource gives a kernel.
RESOURCE_TO_BOUND = {
    Resource.ALU: Bound.ALU,
    Resource.TEX: Bound.FETCH,
    Resource.EXPORT: Bound.WRITE,
}

_RESOURCES = tuple(Resource)

#: a resource is considered saturated above this utilization.
SATURATION_THRESHOLD = 0.70


@dataclass(frozen=True)
class Counters:
    """Cycle accounting for one simulated launch (one SIMD, one iteration)."""

    makespan_cycles: float
    busy_cycles: dict[Resource, float]
    wavefronts_simulated: int
    wavefronts_total: int
    resident_wavefronts: int
    texture_hit_rate: float | None = None
    texture_overfetch: float | None = None

    def utilization(self, resource: Resource) -> float:
        """Busy fraction of a resource over the launch."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.busy_cycles.get(resource, 0.0) / self.makespan_cycles

    def bottleneck(self) -> Bound:
        """Classify the launch per the paper's three-bottleneck model.

        The most-utilized resource wins if it is saturated; otherwise the
        kernel is latency-bound (not enough wavefronts to hide stalls —
        the regime the register-usage benchmark escapes by lowering GPR
        pressure).
        """
        busiest = max(_RESOURCES, key=self.utilization)
        if self.utilization(busiest) >= SATURATION_THRESHOLD:
            return RESOURCE_TO_BOUND[busiest]
        return Bound.LATENCY

    def summary(self) -> str:
        utils = ", ".join(
            f"{r.value}={self.utilization(r):.0%}" for r in Resource
        )
        return (
            f"makespan={self.makespan_cycles:.0f}cyc wf={self.wavefronts_total} "
            f"resident={self.resident_wavefronts} [{utils}] "
            f"bound={self.bottleneck().value}"
        )
