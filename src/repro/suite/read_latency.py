"""Texture-fetch / global-read latency micro-benchmark (§III-B, Figs 11-12).

Increases the number of inputs from 2 to 18 while holding the ALU-op count
at ``inputs - 1`` (the minimum that consumes every input) and the output
count at one, so texture fetching stays the bottleneck.  The kernel does
not hold GPR usage constant — the paper accepts the resulting decline in
simultaneous wavefronts because the fetch path dominates regardless.

``input_space=GLOBAL`` gives the global-read variant (Figure 12), where
the uncached path's cost — dramatic on the RV670, negligible on the RV770
and RV870 — is exposed directly.
"""

from __future__ import annotations

from repro.il.types import MemorySpace
from repro.kernels import KernelParams, KernelRecipe
from repro.suite.base import MicroBenchmark, SeriesSpec

INPUT_SWEEP = list(range(2, 19))
FAST_SWEEP = [2, 4, 8, 12, 16, 18]


class ReadLatencyBenchmark(MicroBenchmark):
    """Time vs. number of inputs with fetches pinned as the bottleneck."""

    name = "fig11"
    title = "Texture Fetch Latency"
    x_label = "Number of Inputs"

    def __init__(
        self,
        input_space: MemorySpace = MemorySpace.TEXTURE,
        name: str | None = None,
        title: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.input_space = input_space
        if name is not None:
            self.name = name
        if title is not None:
            self.title = title

    @classmethod
    def figure11(cls, **kwargs) -> "ReadLatencyBenchmark":
        return cls(name="fig11", title="Texture Fetch Latency", **kwargs)

    @classmethod
    def figure12(cls, **kwargs) -> "ReadLatencyBenchmark":
        return cls(
            input_space=MemorySpace.GLOBAL,
            name="fig12",
            title="Global Read Latency",
            **kwargs,
        )

    def sweep_values(self, fast: bool = False) -> list[float]:
        return [float(v) for v in (FAST_SWEEP if fast else INPUT_SWEEP)]

    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        inputs = int(value)
        params = KernelParams(
            inputs=inputs,
            outputs=1,
            # ALU ops fixed to inputs - 1: "insures that the texture fetch
            # is the bottleneck" (§III-B).
            alu_ops=inputs - 1,
            dtype=spec.dtype,
            mode=spec.mode,
            input_space=self.input_space,
        )
        return KernelRecipe("generic", params)
