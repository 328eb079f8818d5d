"""Write-latency micro-benchmark (§III-C, Figures 13-14).

Sweeps the output count from 1 to 8 with the input count fixed at eight
and a low constant ALU-op budget, so that GPR usage — and therefore the
number of simultaneous wavefronts — is identical at every point: the GPRs
are "dependent on the constant input size ... and not the output size".

The streaming-store variant (Figure 13) writes pixel-mode color buffers,
which burst-combine; compute mode has no color buffers, so the
global-write variant (Figure 14) measures the uncached store path where
the float:float4 time ratio is 1:4.
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.il.types import MemorySpace, ShaderMode
from repro.kernels import KernelParams, KernelRecipe
from repro.suite.base import MicroBenchmark, SeriesSpec, standard_series

OUTPUT_SWEEP = list(range(1, 9))

#: "The number of ALU instructions were selected to be a relatively low
#: constant value so that they would allow for all of the inputs to be
#: used but would not become the bottleneck" (§III-C).
CONSTANT_ALU_OPS = 16


class WriteLatencyBenchmark(MicroBenchmark):
    """Time vs. number of outputs at constant register pressure."""

    name = "fig13"
    title = "Streaming Store Latency"
    x_label = "Number of Outputs"

    def __init__(
        self,
        output_space: MemorySpace = MemorySpace.COLOR_BUFFER,
        inputs: int = 8,
        name: str | None = None,
        title: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.output_space = output_space
        self.inputs = inputs
        if name is not None:
            self.name = name
        if title is not None:
            self.title = title

    @classmethod
    def figure13(cls, **kwargs) -> "WriteLatencyBenchmark":
        return cls(
            output_space=MemorySpace.COLOR_BUFFER,
            name="fig13",
            title="Streaming Store Latency",
            **kwargs,
        )

    @classmethod
    def figure14(cls, **kwargs) -> "WriteLatencyBenchmark":
        return cls(
            output_space=MemorySpace.GLOBAL,
            name="fig14",
            title="Global Write Latency",
            **kwargs,
        )

    def sweep_values(self, fast: bool = False) -> list[float]:
        return [float(v) for v in OUTPUT_SWEEP]

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        if self.output_space is MemorySpace.COLOR_BUFFER:
            # Streaming stores exist only in pixel mode (§III-C).
            return standard_series(gpus, modes=(ShaderMode.PIXEL,))
        return standard_series(gpus)

    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        params = KernelParams(
            inputs=self.inputs,
            outputs=int(value),
            alu_ops=CONSTANT_ALU_OPS,
            dtype=spec.dtype,
            mode=spec.mode,
            output_space=self.output_space,
        )
        return KernelRecipe("generic", params)
