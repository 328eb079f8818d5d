"""Domain-size micro-benchmark (§III-D, Figure 15).

Runs an ALU-bound kernel (eight inputs, one output, SKA ALU:Fetch ratio
10.0, hence a constant eight-GPR footprint and constant wavefront
residency) over square domains from 256x256 to 1024x1024 — stepping by
8x8 in pixel mode and by 64x64 in compute mode, where elements must pad to
64.  Execution time grows with the thread count; the small local ripples
come from partial edge tiles and cache effects, and the overall picture
"reemphasizes that a large number of threads are needed to keep the GPU
busy".
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.il.types import DataType, ShaderMode
from repro.kernels import KernelParams, KernelRecipe
from repro.suite.base import MicroBenchmark, SeriesSpec, standard_series

PIXEL_STEP = 8
COMPUTE_STEP = 64
DOMAIN_MIN = 256
DOMAIN_MAX = 1024


class DomainSizeBenchmark(MicroBenchmark):
    """Time vs. square-domain edge length for an ALU-bound kernel."""

    name = "fig15"
    title = "Impact of Domain Size"
    x_label = "Domain Size"

    def __init__(
        self,
        mode: ShaderMode = ShaderMode.PIXEL,
        alu_fetch_ratio: float = 10.0,
        name: str | None = None,
        title: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.mode = mode
        self.alu_fetch_ratio = alu_fetch_ratio
        if name is not None:
            self.name = name
        if title is not None:
            self.title = title

    @classmethod
    def figure15a(cls, **kwargs) -> "DomainSizeBenchmark":
        return cls(
            mode=ShaderMode.PIXEL,
            name="fig15a",
            title="Domain Size Pixel Shader",
            **kwargs,
        )

    @classmethod
    def figure15b(cls, **kwargs) -> "DomainSizeBenchmark":
        return cls(
            mode=ShaderMode.COMPUTE,
            name="fig15b",
            title="Domain Size Compute Shader",
            **kwargs,
        )

    def sweep_values(self, fast: bool = False) -> list[float]:
        step = PIXEL_STEP if self.mode is ShaderMode.PIXEL else COMPUTE_STEP
        if fast:
            step = max(step, 128)
        return [
            float(edge)
            for edge in range(DOMAIN_MIN, DOMAIN_MAX + 1, step)
        ]

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        # The paper plots one line per card; float and float4 coincide for
        # this ALU-bound kernel (no VLIW packing), so float suffices.
        return standard_series(
            gpus, modes=(self.mode,), dtypes=(DataType.FLOAT,)
        )

    def domain_for(self, value: float, spec: SeriesSpec) -> tuple[int, int]:
        edge = int(value)
        return (edge, edge)

    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        # The sweep value only sizes the launch domain: the whole figure
        # is one recipe per (mode, dtype), built and compiled once.
        params = KernelParams(
            inputs=8,
            outputs=1,
            alu_fetch_ratio=self.alu_fetch_ratio,
            dtype=spec.dtype,
            mode=spec.mode,
        )
        return KernelRecipe("generic", params)
